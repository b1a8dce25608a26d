"""Seeded query streams over the flights schema.

Four query shapes, drawn in equal shares:

* ``point`` — ``COUNT(*)`` of one origin × dest pair;
* ``date_range`` — ``COUNT(*)`` of one origin over an ``fl_date`` range;
* ``group_by`` — a filtered ``GROUP BY`` (dest per origin over an
  ``fl_time`` range, or origin over a ``distance`` range);
* ``sum`` — ``SUM(distance)`` of one dest over an ``fl_date`` range.

Every query in a stream is distinct in its *canonical* form (binned
attributes are addressed by bucket midpoints, so two queries never
normalize to the same bucket range), which keeps a stream's working set
as large as the stream itself.
"""

from __future__ import annotations

import random

SHAPES = ("point", "date_range", "group_by", "sum")


def _midpoints(domain) -> list[str]:
    """Bucket midpoints of a binned attribute, from labels ``[lo, hi)``."""
    mids = []
    for label in domain.labels:
        low, high = str(label).strip("[]()").split(",")
        mids.append(f"{(float(low) + float(high)) / 2:.4f}")
    return mids


class Streams:
    def __init__(self, schema, table: str = "R"):
        self.table = table
        self.states = [str(label) for label in schema.domain("origin_state").labels]
        self.dates = schema.domain("fl_date").size
        self.times = _midpoints(schema.domain("fl_time"))
        self.distances = _midpoints(schema.domain("distance"))

    # -- one query of a shape -------------------------------------------------
    @staticmethod
    def _range(rng: random.Random, size: int, longest: int) -> tuple[int, int]:
        low = rng.randrange(size - 1)
        high = min(size - 1, low + rng.randint(1, longest))
        return low, high

    def _draw(self, rng: random.Random, shape: str):
        """``(canonical key, sql, between_variant_sql)`` of one query."""
        t = self.table
        states = self.states
        if shape == "point":
            a, b = rng.sample(range(len(states)), 2)
            sql = (
                f"SELECT COUNT(*) FROM {t} WHERE origin_state = '{states[a]}' "
                f"AND dest_state = '{states[b]}'"
            )
            return (shape, a, b), sql, None
        if shape == "date_range":
            a = rng.randrange(len(states))
            low, high = self._range(rng, self.dates, 120)
            head = f"SELECT COUNT(*) FROM {t} WHERE origin_state = '{states[a]}' AND "
            return (
                (shape, a, low, high),
                head + f"fl_date BETWEEN {low} AND {high}",
                head + f"fl_date >= {low} AND fl_date <= {high}",
            )
        if shape == "sum":
            b = rng.randrange(len(states))
            low, high = self._range(rng, self.dates, 120)
            head = f"SELECT SUM(distance) FROM {t} WHERE dest_state = '{states[b]}' AND "
            return (
                (shape, b, low, high),
                head + f"fl_date BETWEEN {low} AND {high}",
                head + f"fl_date >= {low} AND fl_date <= {high}",
            )
        if rng.random() < 0.5:
            a = rng.randrange(len(states))
            low, high = self._range(rng, len(self.times), 20)
            lo, hi = self.times[low], self.times[high]
            head = (
                f"SELECT dest_state, COUNT(*) FROM {t} WHERE "
                f"origin_state = '{states[a]}' AND "
            )
            return (
                (shape, "dest", a, low, high),
                head + f"fl_time BETWEEN {lo} AND {hi} GROUP BY dest_state",
                head + f"fl_time >= {lo} AND fl_time <= {hi} GROUP BY dest_state",
            )
        low, high = self._range(rng, len(self.distances), 25)
        lo, hi = self.distances[low], self.distances[high]
        head = f"SELECT origin_state, COUNT(*) FROM {t} WHERE "
        return (
            (shape, "origin", low, high),
            head + f"distance BETWEEN {lo} AND {hi} GROUP BY origin_state",
            head + f"distance >= {lo} AND distance <= {hi} GROUP BY origin_state",
        )

    # -- streams ---------------------------------------------------------------
    def distinct(self, seed: int, count: int, exclude=()) -> list[tuple[str, str]]:
        """``count`` canonically distinct ``(shape, sql)`` pairs, shapes
        in equal shares (shuffled in blocks of four); canonical keys in
        ``exclude`` are skipped."""
        points = len(self.states) * (len(self.states) - 1)
        if count > len(SHAPES) * points * 0.98:
            raise ValueError(f"{count} distinct queries exceed the point shape's space")
        rng = random.Random(seed)
        seen = set(exclude)
        out: list[tuple[str, str]] = []
        while len(out) < count:
            block = list(SHAPES)
            rng.shuffle(block)
            for shape in block:
                while True:
                    key, sql, _ = self._draw(rng, shape)
                    if key not in seen:
                        break
                seen.add(key)
                out.append((shape, sql))
        return out[:count]

    def hot_set(self, seed: int, size: int = 10):
        """``size`` canonical queries, each in its ``BETWEEN`` and its
        ``>=``/``<=`` spelling: ``(keys, [(shape, sql), ...])``."""
        rng = random.Random(seed)
        keys, texts = set(), []
        shapes = ("date_range", "sum", "group_by")
        while len(keys) < size:
            shape = shapes[len(keys) % len(shapes)]
            key, sql, variant = self._draw(rng, shape)
            if key in keys:
                continue
            keys.add(key)
            texts += [(shape, sql), (shape, variant)]
        return keys, texts
