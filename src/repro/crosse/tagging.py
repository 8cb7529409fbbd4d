"""The semantic tagging module (Section III-A).

Three annotation scenarios:

* **Integrated**: the user annotates a concept she is currently viewing
  in the platform; the subject *must* be a value extracted from the
  original data source, which this module validates against the
  databank.
* **Independent**: free insertion of any ``<subject, property, object>``
  triple.
* **Crowdsourced**: annotations are public; peers explore them and
  import (accept) them into their own knowledge bases — implemented by
  :meth:`KnowledgeBaseStore.accept` and surfaced here via
  ``explore_annotations``.
"""

from __future__ import annotations

from ..core.mapping import ResourceMapping
from ..rdf.terms import Term
from ..relational import ast
from ..relational.engine import Database
from .errors import AnnotationError
from .kb import KnowledgeBaseStore, Reference, StatementRecord


class SemanticTaggingModule:
    """Validates and records user annotations."""

    def __init__(self, databank: Database, statements: KnowledgeBaseStore,
                 mapping: ResourceMapping | None = None) -> None:
        self.databank = databank
        self.statements = statements
        self.mapping = mapping or ResourceMapping()
        #: (table, column) -> its value check, kept so that the
        #: databank re-drives one tree per column.
        self._exists: dict[tuple[str, str], ast.SelectQuery] = {}

    # -- integrated scenario --------------------------------------------------

    def annotate_concept(self, username: str, table: str, column: str,
                         value: str, prop, obj,
                         reference: Reference | None = None,
                         public: bool = True) -> StatementRecord:
        """Integrated annotation: *value* must occur in table.column."""
        if not self._value_exists(table, column, value):
            raise AnnotationError(
                f"integrated annotation requires the subject to come from "
                f"the data source: {value!r} not found in "
                f"{table}.{column}")
        subject = self.mapping.to_term(column, value)
        return self.statements.insert(username, subject, prop, obj,
                                      public=public, reference=reference)

    def _value_exists(self, table_name: str, column: str,
                      value: str) -> bool:
        """Whether SQL ``column = value`` holds for a row of the table,
        asked of the databank like any query (its read lock, its paths)."""
        query = self._exists.get((table_name, column))
        if query is None:
            # SELECT 1 FROM table WHERE column = ? LIMIT 1, over the names
            # the schema resolves: nothing is spliced into SQL text.
            schema = self.databank.table(table_name).schema
            where = ast.BinaryOp("=", ast.ColumnRef(
                schema.column(column).name), ast.Param(0))
            query = self._exists[table_name, column] = ast.SelectQuery(
                ast.SelectCore([ast.SelectItem(ast.Literal(1))],
                               from_clause=ast.TableRef(schema.name),
                               where=where), limit=ast.Literal(1))
        return len(self.databank.execute_ast(query, (value,))) > 0

    # -- independent scenario ---------------------------------------------------

    def annotate_free(self, username: str, subject, prop, obj,
                      reference: Reference | None = None,
                      public: bool = True) -> StatementRecord:
        """Independent annotation: any triple the user believes."""
        return self.statements.insert(username, subject, prop, obj,
                                      public=public, reference=reference)

    def annotate_note(self, username: str, subject, note: str,
                      public: bool = False) -> StatementRecord:
        """A personal exploration note (Section III-A, annotation kind ii)."""
        from ..rdf.namespace import SMG
        return self.statements.insert(username, subject, SMG.note, note,
                                      public=public)

    # -- crowdsourced scenario -----------------------------------------------------

    def explore_annotations(self, username: str,
                            prop: Term | None = None,
                            author: str | None = None,
                            limit: int | None = None
                            ) -> list[StatementRecord]:
        """Browse peers' public annotations (optionally filtered): the
        first *limit* of them in the platform's one order, or all."""
        return self.statements.public_statements(
            exclude_author=username, predicate=prop, author=author,
            limit=limit)
