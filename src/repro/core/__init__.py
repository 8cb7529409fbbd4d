"""SESQL — the paper's primary contribution.

The Semantically Enriched SQL language (Section IV of the paper) and its
processing architecture (Fig. 6): condition-tag scanner, SQP, SQM,
JoinManager, the extraction relations and the engine facade.
"""

from .ast import (BoolSchemaExtension, BoolSchemaReplacement, EnrichedQuery,
                  Enrichment, ReplaceConstant, ReplaceVariable,
                  SchemaExtension, SchemaReplacement, TaggedCondition)
from .condtags import scan_condition_tags
from .engine import SESQLEngine, SESQLResult
from .errors import (EnrichmentError, MappingError, ParameterError,
                     SesqlError, SesqlSyntaxError, StoredQueryError)
from .join_manager import JoinManager
from .mapping import AttributeMapping, ResourceMapping
from .parser import parse_enrichments, split_sesql
from .sqm import Extraction, SemanticQueryModule
from .sqp import SemanticQueryParser, parse_sesql
from .stored_queries import StoredQuery, StoredQueryRegistry

__all__ = [
    "SESQLEngine", "SESQLResult", "SemanticQueryParser", "parse_sesql",
    "SemanticQueryModule", "Extraction", "JoinManager",
    "ResourceMapping", "AttributeMapping",
    "StoredQueryRegistry", "StoredQuery",
    "EnrichedQuery", "Enrichment", "TaggedCondition",
    "SchemaExtension", "SchemaReplacement", "BoolSchemaExtension",
    "BoolSchemaReplacement", "ReplaceConstant", "ReplaceVariable",
    "scan_condition_tags", "split_sesql", "parse_enrichments",
    "SesqlError", "SesqlSyntaxError", "EnrichmentError", "MappingError",
    "StoredQueryError", "ParameterError",
]
