"""Answer checks shared by every workload.

* no count is negative (scalars, GROUP BY rows, and SUMs);
* the rows of a GROUP BY sum to no more than the relation's total;
* served answers equal in-process answers to a relative 1e-9;
* ``answer_err`` — the paper's mean relative error ``|t−e|/(t+e)`` of
  scalar COUNT answers against ``ExactBackend`` on the same relation.
"""

from __future__ import annotations

import math

SAME_ANSWER_REL = 1e-9
#: Scalar COUNT queries per run scored against the exact oracle.
ORACLE_QUERIES = 2_500


def _values(answer) -> tuple[float | None, list[float] | None]:
    """``(scalar, row counts)`` of a QueryResult or a served payload."""
    if isinstance(answer, dict):
        if answer.get("kind") == "rows":
            return None, [float(row[-1]) for row in answer["rows"]]
        return float(answer["value"]), None
    if answer.is_scalar:
        return float(answer.scalar), None
    return None, [float(row.count) for row in answer.rows]


def check_answer(answer, total: float) -> str | None:
    """A failure message, or None when the answer passes."""
    scalar, rows = _values(answer)
    if scalar is not None:
        if not math.isfinite(scalar) or scalar < 0:
            return f"negative or non-finite answer {scalar!r}"
        return None
    for count in rows:
        if not math.isfinite(count) or count < 0:
            return f"negative or non-finite group count {count!r}"
    grouped = sum(rows)
    if grouped > total * (1 + SAME_ANSWER_REL):
        return f"group rows sum to {grouped:.6g} > total {total}"
    return None


def same_answer(left, right) -> str | None:
    """None when two answers agree to a relative 1e-9."""
    a_scalar, a_rows = _values(left)
    b_scalar, b_rows = _values(right)
    a = [a_scalar] if a_scalar is not None else a_rows
    b = [b_scalar] if b_scalar is not None else b_rows
    if len(a) != len(b):
        return f"answers differ in shape ({len(a)} vs {len(b)} values)"
    for x, y in zip(a, b):
        if abs(x - y) > SAME_ANSWER_REL * max(abs(x), abs(y), 1.0):
            return f"answers differ: {x!r} vs {y!r}"
    return None


def count_queries(stream, limit: int = ORACLE_QUERIES) -> list[str]:
    """The first ``limit`` scalar COUNT queries of a ``(shape, sql)``
    stream — the seed fixes them, so ``answer_err`` is deterministic."""
    return [sql for shape, sql in stream if shape in ("point", "date_range")][
        :limit
    ]


def answer_error(estimate, relation, sqls) -> float:
    """Mean relative error of ``estimate(sql)`` against ``ExactBackend``
    on ``relation``."""
    from repro import Explorer
    from repro.evaluation.metrics import mean_relative_error

    exact = Explorer.attach(relation, cache_size=0)
    truths = [exact.sql(sql).scalar for sql in sqls]
    return mean_relative_error(truths, [estimate(sql) for sql in sqls])
