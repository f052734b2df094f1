"""Command line front end.

Subcommands: ``types`` (exact histogram counting and bound checks),
``verify`` (mixture approximation reports over an (n, k) grid), ``lemma``
(the supporting oracles: lemma1, lemma3, dbound, pythagoras), and ``gibbs``
(block-law convergence traces).  Exit codes: 0 all checks pass, 1 a bound
check failed, 2 an enumeration exceeded the cap, 3 bad input.  Randomized
operations require --seed, and a repeated invocation with the same arguments
produces byte-identical output.

Each subcommand's arguments and handler live in its own module,
``finetti.cli_<name>``, with ``add_arguments(parser)`` and ``run(args)``.
`main` imports only the module of the subcommand it runs, so ``--help``
loads this module alone.
"""

import argparse
import sys

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CAPACITY = 2
EXIT_INPUT = 3

# subcommand name -> help string; the handler is the module finetti.cli_<name>
COMMANDS = {
    "types": "enumerate histograms and check exact bounds",
    "verify": "mixture approximation reports on a grid",
    "lemma": "supporting oracles",
    "gibbs": "block-law convergence trace (CSV)",
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list {text!r}") from exc


def _emit(lines, out_path: str | None, end: str = "\n") -> None:
    """Write each line and `end` to out_path, else stdout, as the lines are read.

    With end="", an iterator of pieces streams one long line without holding it whole.
    """
    fh = open(out_path, "w") if out_path else sys.stdout
    try:
        for line in lines:
            fh.write(line + end)
    finally:
        if out_path:
            fh.close()


def _json_line(obj) -> str:
    """json.dumps(obj, sort_keys=True), without loading `json`.

    Dicts with str keys, lists, tuples, bools, None, ints, floats, and strings
    of printable ASCII without '"' or '\\'; any other value raises.
    """
    if isinstance(obj, str):
        if not (obj.isascii() and obj.isprintable()) or '"' in obj or "\\" in obj:
            raise ValueError(f"cannot write {obj!r} as a JSON string without escapes")
        return f'"{obj}"'
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text)
    if isinstance(obj, (list, tuple)):
        return f"[{', '.join(map(_json_line, obj))}]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        items = (f"{_json_line(key)}: {_json_line(obj[key])}" for key in sorted(obj))
        return f"{{{', '.join(items)}}}"
    raise TypeError(f"cannot write {obj!r} as JSON")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="finetti",
        description="Exact histogram combinatorics and mixture approximation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=text) for name, text in COMMANDS.items()}
    # the top level has no option that takes a value, so the first word that
    # is not an option names the subcommand; only its module is imported
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    if command in subparsers:
        from importlib import import_module

        handler = import_module(f"{__package__}.cli_{command}")
        handler.add_arguments(subparsers[command])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the input error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    from .counts import CapacityError  # after parse_args, so --help loads no other module

    try:
        return handler.run(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
