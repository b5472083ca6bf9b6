"""A seeded mutation sampler: which one-site changes to ``src/lcc`` does tier-1 miss?

Each mutant changes one site of one module: a comparison operator swapped
(``<`` and ``<=``, ``==`` and ``!=``, ...), an arithmetic operator swapped
(``+`` and ``-``, ``*`` and ``/``, ...), or a numeric constant bumped (an int
or 0.0 by one, another float by half its size).  The site is spliced in the
source bytes, so every other byte and line number stays.  Each mutant runs
the whole tier-1 suite with ``-x`` in a temporary copy of the checkout, one
mutant at a time; a mutant whose run passes survives, and one that runs past
four times the unmutated suite's time counts as killed.  Survivors are
reported by module, apart from the known equivalent ones in ``EQUIVALENT``.
The sites of each module are drawn from the seed and the module's path.

Not part of tier-1 or CI.  A mutant whose tests all pass takes the suite's
full time, so a run takes minutes::

    python tests/mutants.py src/lcc/stability.py --sites 15 --seed 0
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in"}
_COMPARE_SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
                 "is": "is not", "is not": "is", "in": "not in", "not in": "in"}
_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
          ast.Mod: "%", ast.Pow: "**"}
_ARITH_SWAP = {"+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "%": "//", "**": "*"}

# Mutants that change no behaviour, keyed by (module, stripped source line, old, new),
# each with the reason.
EQUIVALENT = {
    ("src/lcc/stability.py",
     "degree = np.max(np.where(coefs != 0, np.arange(coefs.shape[1]), 0), axis=1)", "0", "1"):
        "the fill reaches the degree of a constant row only: Den is monic of degree 2n + 2, "
        "and Num is constant only where the gains cancel every higher coefficient",
    ("src/lcc/stability.py", 'classes = np.empty(values[0].size, dtype="<U2")', "0", "1"):
        "both gain columns hold one value per cell, so they have the same size",
}


def sites(source: bytes):
    """(start, end, old, new) byte spans of every mutable site, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def at(lineno, col):
        return starts[lineno - 1] + col

    def operator(left, right, symbol, new):
        """The operator between two operands, found in the bytes between them."""
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        gap = source[lo:hi].decode()
        if symbol[0].isalpha():  # a word operator stands between spaces
            i = gap.index(f" {symbol} ") + 1
        else:
            i = gap.index(symbol)
        return lo + len(gap[:i].encode()), lo + len(gap[: i + len(symbol)].encode()), symbol, new

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, right, op in zip([node.left, *node.comparators], node.comparators, node.ops):
                symbol = _COMPARE[type(op)]
                found.append(operator(left, right, symbol, _COMPARE_SWAP[symbol]))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            if any(isinstance(side, (ast.JoinedStr, ast.Constant)) and not _is_number(side)
                   for side in (node.left, node.right)):
                continue  # string formatting and concatenation
            symbol = _ARITH[type(node.op)]
            found.append(operator(node.left, node.right, symbol, _ARITH_SWAP[symbol]))
        elif _is_number(node):
            value = node.value
            new = value + 1 if isinstance(value, int) or value == 0 else value * 1.5
            start, end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            found.append((start, end, source[start:end].decode(), repr(new)))
    return sorted(found)


def _is_number(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _line(source: bytes, start: int):
    lineno = source.count(b"\n", 0, start) + 1
    text = source.splitlines()[lineno - 1].decode().strip()
    return lineno, text


def _run_suite(checkout: Path, timeout: float):
    """Whether tier-1 passes in ``checkout`` (None on timeout), and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    begin = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - begin
    return done.returncode == 0, time.monotonic() - begin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="module paths (default: every src/lcc module)")
    parser.add_argument("--sites", type=int, default=15, help="sites drawn per module")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "src" / "lcc").glob("*.py")
    )
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".benchmarks", "*.egg-info", "lcc-out")
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=ignore)
        passed, baseline = _run_suite(checkout, timeout=3600)
        if not passed:
            print("tier-1 fails on the unmutated checkout; no mutant can be judged")
            return 1
        print(f"baseline: tier-1 passes in {baseline:.0f} s", flush=True)
        for module in modules:
            path = checkout / module
            source = path.read_bytes()
            found = sites(source)
            rng = random.Random(f"{args.seed}:{module}")
            drawn = sorted(rng.sample(found, min(args.sites, len(found))))
            survivors, equivalent, killed = [], [], 0
            for start, end, old, new in drawn:
                path.write_bytes(source[:start] + new.encode() + source[end:])
                passed, _ = _run_suite(checkout, timeout=4 * baseline + 60)
                lineno, text = _line(source, start)
                if not passed:
                    killed += 1
                elif (module, text, old, new) in EQUIVALENT:
                    equivalent.append((lineno, old, new, EQUIVALENT[module, text, old, new]))
                else:
                    survivors.append((lineno, old, new, text))
            path.write_bytes(source)
            print(f"{module}: {len(drawn)} sites, {killed} killed, {len(survivors)} survived, "
                  f"{len(equivalent)} equivalent", flush=True)
            for lineno, old, new, text in survivors:
                print(f"  survived L{lineno} `{old}` -> `{new}`: {text}")
            for lineno, old, new, why in equivalent:
                print(f"  equivalent L{lineno} `{old}` -> `{new}`: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
