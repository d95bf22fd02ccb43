"""The README's CLI block, run as tools/reach.py runs it: each line on the
files of tests/examples/, in this process through cli.main.  Together the
lines run every row of cli.COMMANDS, each exits 0, and each prints the
report pinned here byte for byte.  A change that means to move a report
re-pins its line, and no other line moves."""

import hashlib

from torsorlab import cli
from helpers import reach_tool

# sha256 of the stdout of each README command line
README_STDOUT_SHA256 = {
    "torsor-lab groups classes --in group.json":
        "ca03b9bf9e53ef20a1ad7cc3a90e8c1b1c4683e10328b4f517889f879be8ceae",
    "torsor-lab gset orbits --in gset.json":
        "7e7f28065cdf62581ea5f839ebe92b9892ea6e7f4f01c896f55ca55d49f837ad",
    "torsor-lab gset iso --in x.json --other y.json":
        "9f287689b611d5d4b0b4ca5fbc09c3e9ebce1d33ebc14e088324829a6a03bd05",
    "torsor-lab gset descent --in gset.json":
        "724710fc9270f85b77d3ce6a4ce75cf8adf77373d7b67c7afe0643c8aa34ca2d",
    "torsor-lab lattice snf --in matrix.json":
        "7f3824e666fa6234b386effb1ab6a5d8e6b8d23f01742806268f2929605a6812",
    "torsor-lab lattice exact --in sequence.json":
        "55bcc531f5931ff8204ca135f34db7ef0f85e48ff5d567cb208022f012fa5fcc",
    "torsor-lab lattice iso --in map.json":
        "0cb3517a06a041ab0b09cb2e73e1674d23e3dd4e5216de429e228c3ce56ad924",
    "torsor-lab cohomology h1 --module lattice.json":
        "ffebbd39427f53e89923795ceb1b7d3167459126dde27872260deb4d303741fa",
    "torsor-lab cohomology h1 --module gamma-group.json":
        "a2e0cfd062c5cb1b11a32d3ef0de4a02cb24d3654aa82a1750b40a31c417b031",
    "torsor-lab torsor verify-twist --seq seq.json --base base.json":
        "a6dbc4f0248516adf4192cce33fe84041ecb3bae60d9d0b2cb91b47d929b9eff",
    "torsor-lab --horizon 32 invsys classify --recipe recipe.json":
        "9cedceefc16998986453c7b14ef416e5ceb63c4bc989ac525f8e9fe48b9e544e",
    'torsor-lab nt split --poly "x^2+1" --p 5':
        "3942e4291a2851809f5cba74776ef1282281a4151924d9c636b30efe297d2420",
    "torsor-lab nt split --conductor 7 --subgroup 1,6 --p 2":
        "d9f1c6a20213a475444ebb131a208549da72e189d127d3737858261a32a85f9a",
    "torsor-lab nt tower-cert --tower tower.json":
        "75faf254edb24a4b1290213a87b8cadd6811a461850e8e2d03b4c90425b9ea0f",
    "torsor-lab serre sequence --datum datum.json":
        "46a4ea71bbbce30b8db8c93908c13665338869c844e437942f8881d82cb3d2a2",
    "torsor-lab serre verify-blocks --gamma-f group.json":
        "236df72fd06f42cd08c8b13e9b4cddef8ca77c9a4634ffb68c77168e7a6903ef",
    "torsor-lab serre tower --chain chain.json":
        "10f58f4d5b66c6bbf1a92943a38ea65e2de1363b4e402e35648f68653cad42f9",
    "torsor-lab suite checks":
        "dee73a1079b9ac58a43d272065e04c4f956d7fb1bea3e0aaaa9919174e5f02b2",
}


def test_the_readme_commands_run_every_command_row():
    parser = cli.build_parser()
    run = {(args.module, args.op) for args in
           (parser.parse_args(argv) for _, argv in reach_tool().readme_commands())}
    assert run == {(module, op) for module, op, _, _ in cli.COMMANDS}


def test_each_readme_command_prints_its_pinned_report():
    reach = reach_tool()
    commands = reach.readme_commands()
    assert [line for line, _ in commands] == list(README_STDOUT_SHA256)
    failed, moved = [], []
    for line, argv in commands:
        code, out = reach.run_cli(argv)
        if code != cli.EXIT_OK:
            failed.append(line)
        if hashlib.sha256(out.encode()).hexdigest() != README_STDOUT_SHA256[line]:
            moved.append(line)
    assert not failed and not moved, f"exit other than 0: {failed}; report moved: {moved}"
