"""Work counts that a regression cannot slip past: deterministic call counts
of the default runs, read by wrapping functions in-process.  A bound may be
lowered when the work falls; it is not raised to make a run pass."""

from torsorlab import checks
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import linalg as la
from torsorlab import serre as sr


def _matmul_calls(monkeypatch, run) -> int:
    calls = [0]
    matmul = la.matmul

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(la, "matmul", counted)
    run()
    monkeypatch.setattr(la, "matmul", matmul)
    return calls[0]


def test_block_decompositions_read_monomial_products(monkeypatch):
    # the twists and equivariance checks of criterion 2 read signed unit rows
    # instead of multiplying (930 and 337 calls when they multiplied)
    assert _matmul_calls(monkeypatch, checks.check_block_decomposition) <= 6
    d4 = gr.dihedral_group(4)
    assert _matmul_calls(monkeypatch, lambda: sr.conjugation_block_decomposition(d4)) <= 1


def test_permutation_h1_multiplies_nothing(monkeypatch):
    # criterion 3's lattices act by permutation matrices, so checking the
    # action law multiplies no matrix
    lattices = [m for _, _, m in checks.coset_lattices()]
    assert len(lattices) == 747

    def run():
        for m in lattices:
            co.h1_abelian(m.group, m)

    assert _matmul_calls(monkeypatch, run) == 0
