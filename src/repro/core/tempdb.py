"""An extraction's SQL side, and the relation a WHERE enrichment reads.

An extraction's SQL side (:class:`SqlExtraction`) is its terms
converted once, with the combine structures built from them.  A WHERE
enrichment reads it as a relation bound to the run, the way a ``?``
value is: a :class:`~repro.relational.table.BoundView` built once per
(kind, extra constant) and kept with the extraction, which the databank
binds under the name the rewritten statement reads
(``execute_ast(stmt, params, views)``).  It is never a catalog table, so
nothing registers, leases or drops it: it lives as long as its
extraction does.
"""

from __future__ import annotations

from functools import cached_property

from ..relational.table import BoundView
from ..relational.types import sql_key


class SqlExtraction:
    """One extraction's terms as SQL values — converted once, with the
    engine's mapping — the combine structures built from them, and the
    relations WHERE enrichments read."""

    def __init__(self, extraction, mapping) -> None:
        convert = mapping.to_sql_value
        self.values = [convert(term) for term in extraction.values]
        self.pairs = [(convert(subject), convert(obj))
                      for subject, obj in extraction.pairs]
        #: The subjects' ``sql_key`` s: the boolean enrichments' key
        #: set, in which ``TRUE`` and ``1`` stay two keys.
        self.keys = {sql_key(value) for value in map(
            convert, extraction.subjects) if value is not None}
        self._views: dict[tuple, BoundView] = {}

    @cached_property
    def buckets(self) -> dict[object, list[object]]:
        """Objects by subject ``sql_key``, in extraction order: the
        SCHEMAEXTENSION / -REPLACEMENT hash side."""
        buckets: dict[object, list[object]] = {}
        for subject, obj in self.pairs:
            if subject is not None:
                buckets.setdefault(sql_key(subject), []).append(obj)
        return buckets

    @cached_property
    def single(self) -> dict[object, object] | None:
        """Each subject ``sql_key`` 's one object, or ``None`` when any
        subject has several: the SCHEMAEXTENSION / -REPLACEMENT combine
        maps a page's key column through it (``map(single.get, keys)``).
        Built once per extraction, it lives as long as the extraction."""
        single: dict[object, object] = {}
        for subject, obj in self.pairs:
            if subject is not None:
                key = sql_key(subject)
                if key in single:
                    return None
                single[key] = obj
        return single

    def view(self, kind: str, extra: tuple) -> BoundView:
        """The relation of this extraction — ``vals``: its values and
        then *extra*, one column ``c0``; ``pairs``: its pairs, ``c0`` and
        ``c1`` — built on first use.  Its values are kept as given, never
        coerced to their column's type: an extraction mixing ``5`` and
        ``'Mercury'`` must still match ``k = 5``."""
        view = self._views.get((kind, extra))
        if view is None:
            cols = ([self.values + list(extra)] if kind == "vals"
                    else [[subject for subject, _obj in self.pairs],
                          [obj for _subject, obj in self.pairs]])
            view = self._views.setdefault((kind, extra), BoundView.of(
                f"__sesql_{kind}", [f"c{index}" for index in range(
                    len(cols))], cols, [set(map(type, column))
                                        for column in cols],
                coerce=False))
        return view
