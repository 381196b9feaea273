"""No builtin ``sum()`` of floats in ``src/``.

Python 3.12's ``sum()`` adds floats with compensation, so a float total
would differ in the last bit between interpreters and same-seed traces,
summaries and invoices would stop being byte-identical across them.
Float totals go through :func:`repro.power.elementwise.ordered_sum`,
which adds left to right everywhere.  ``sum()`` stays only where every
term is an int: counts (``sum(1 for ...)``) and the few int totals
listed below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``(path under src/, argument source)`` of the builtin sums of ints.
INT_SUMS = {
    ("repro/cli.py", "result.quarantined_bids.values()"),
    ("repro/daemon/server.py", "(len(q) for q in self._pending.values())"),
    ("repro/sim/engine.py", "self._quarantined_by_tenant.values()"),
    ("repro/sim/engine.py", "self.deadline_guard.hits.values()"),
}


def _is_count(call: ast.Call) -> bool:
    """``sum(1 for ...)``: a count."""
    (arg,) = call.args
    return (
        isinstance(arg, ast.GeneratorExp)
        and isinstance(arg.elt, ast.Constant)
        and arg.elt.value == 1
    )


def _builtin_sums():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                yield path.relative_to(SRC).as_posix(), node


def test_only_int_sums_remain():
    offenders = [
        f"{path}:{node.lineno}: {ast.unparse(node)}"
        for path, node in _builtin_sums()
        if not _is_count(node) and (path, ast.unparse(node.args[0])) not in INT_SUMS
    ]
    assert not offenders, "float sum() in src/ (use ordered_sum):\n" + "\n".join(
        offenders
    )


def test_allowlist_is_current():
    found = {(path, ast.unparse(node.args[0])) for path, node in _builtin_sums()}
    assert INT_SUMS <= found, sorted(INT_SUMS - found)
