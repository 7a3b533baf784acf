"""The parser that ``fatou.cli.main`` used to build on every call.

``build_parser`` adds every subcommand's flags, though one parse runs one
subcommand's parser; ``fatou.cli`` now adds flags to the subcommand that
argv names only.  The help text of the top level and of every subcommand,
and the errors of each, must be equal to this parser's.
Kept here as the reference that tests compare against.
"""

import argparse

from fatou.cli import COMMANDS, FLAGS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fatou",
        description="numerical experiments on invariant Fatou components of "
                    "C^2 automorphisms",
    )
    sub = ap.add_subparsers(dest="command")
    for name, (help_text, func, flags) in COMMANDS.items():
        # no abbreviations: --seed must not stand for --seed-transformed
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in ("config", "out") + flags:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=FLAGS[dest][2])
        p.set_defaults(func=func)
    return ap
