"""Print the text of ``capable2 witness`` for every capable tuple with
exponents <= 4, then of ``capable2 export-cas`` for i(1,1,1), ii(3,2,2,1)
and i(4,4,4), each after a ``$ capable2 ...`` line naming the command.

``tests/data/witness_text.txt`` holds this text; CI diffs it against

    PYTHONPATH=src python tests/witness_text.py

and the same command, redirected to that file, regenerates it.  Exits with
the first nonzero exit code of a command.
"""

import sys

from capable2 import capability, class2, cli

EXPORTS = [class2.type_i(1, 1, 1), class2.type_ii(3, 2, 2, 1), class2.type_i(4, 4, 4)]


def flags(p: class2.TypeParams) -> list[str]:
    args = ["--type", p.kind]
    for name in ("alpha", "beta", "gamma", "sigma"):
        if getattr(p, name) is not None:
            args += [f"--{name}", str(getattr(p, name))]
    return args


def main() -> int:
    commands = [
        ["witness", *flags(p)]
        for p in class2.iter_valid_params(4)
        if capability.decide(p).capable
    ]
    commands += [["export-cas", *flags(p)] for p in EXPORTS]
    for argv in commands:
        print("$ capable2 " + " ".join(argv), flush=True)
        code = cli.main(argv)
        if code:
            print(f"capable2 {' '.join(argv)} exited {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
