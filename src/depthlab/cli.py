"""Batch front door: one subcommand per experiment, CSV/JSON out.

Every subcommand resolves its parameters (config file first, flags
override), runs one experiment and emits a machine-readable artifact
that embeds the resolved parameters, so a result file is always
self-describing.  Fixed seed and config give byte-identical bytes out.

Exit codes: 0 success, 2 validation error, 3 budget-inconclusive.

This module is what every run needs: the command table, the parser,
config files, the artifact writers and the exit codes.  Each
subcommand is one module under `commands/` (`space-lemma` in
`commands/space_lemma.py`) holding `arguments(parser)` and `run(args)`.
This module imports only bits, the machine-free leaf that holds the
input readers and the two failures `dispatch` maps to exit 2 and exit 3.
A run that names its command imports only that module, which imports
the measuring modules it calls, so a `k` run loads just toyvm and
complexity beyond this module and bits, and a `space-lemma` run just
randomness and no machine; `--help` and a missing or unknown command
import them all.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .bits import DepthlabError, NoStageWithinBudget, read_input

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    import json

    _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolved(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _require_nonnegative(args, *flags) -> None:
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")


# name -> help line, in the order --help lists them; each command's
# `arguments(parser)` and `run(args)` live in commands/<name>.py, with
# "-" spelled "_"
COMMANDS = {
    "k": "shortest-program length of a string",
    "m": "staged semimeasure mass of a string",
    "convert-timebound": "stage at which the machine semimeasure dominates a table",
    "space-lemma": "cheap-extension counting sweep",
    "psi": "truncated oracle integral test",
    "avg": "exact oracle average of the relative mass",
    "measure-cheap": "measure of oracle prefixes compressing a fixed prefix",
    "profile": "per-prefix depth profile CSV",
    "build-deep": "finite-extension builder",
    "force": "schedule forcing loop",
    "join-check": "xor-join randomness report",
    "solovay": "tightness of the time-bounded bound on integer codes",
    "selftest": "deterministic invariant suite",
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone, which
    imports only that command's module.  The one-command parser names all
    of them in its usage line, so an error it reports prints what the
    full parser's would."""
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="desk-scale complexity, semimeasure and forcing experiments",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    # a metavar would also rename `command` in the missing-command error,
    # which only the full parser can report
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        module = import_module(f".commands.{name.replace('-', '_')}", __package__)
        p = sub.add_parser(name, allow_abbrev=False, help=COMMANDS[name])
        p.set_defaults(handler=module.run)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        module.arguments(p)
    return parser


def _leading_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The file a leading `--config FILE` or `--config=FILE` names (None
    without one) and the argv past it; argparse rejects one after the
    command, and a second one before it is an error here."""
    if argv and argv[0].startswith("--config="):
        argv = ["--config", argv[0][len("--config="):], *argv[1:]]
    if argv[:1] != ["--config"]:
        return None, argv
    if len(argv) == 1:
        raise ValueError("--config needs a file")
    if _leading_config(argv[2:])[0] is not None:
        raise ValueError("--config given twice before the command")
    return argv[1], argv[2:]


def _named_command(argv: list[str]) -> str | None:
    """The subcommand argv names as its first token past a leading
    --config, or None when that token is not a subcommand."""
    first = _leading_config(argv)[1][:1]
    return first[0] if first and first[0] in COMMANDS else None


def _config_flags(lines) -> list[str]:
    out, keys = [], set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"{line!r} is not key=value")
        if key in keys:
            raise ValueError(f"key {key!r} given twice")
        keys.add(key)
        out.append(f"--{key}={value.strip()}")
    return out


def dispatch(argv: list[str]) -> int:
    """Parse arguments (config file first so flags win) and run one
    subcommand; returns the exit status.  Bad input exits 2 with an
    `error:` line on stderr, argparse's own errors included."""
    try:
        path, rest = _leading_config(argv)
        if path is not None:
            rest = rest[:1] + read_input(path, "config file", _config_flags) + rest[1:]
        args = _build_parser(_named_command(argv)).parse_args(rest)
        return args.handler(args)
    except (ValueError, KeyError, OSError, DepthlabError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NoStageWithinBudget as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
