"""The resource mapping: how SQL values and RDF terms correspond.

Fig. 6 of the paper: *"A JoinManager module combines the partial results
returned by the two independent queries, leveraging the resource mapping
described in an XML file."*

A :class:`ResourceMapping` declares, per relational attribute, how its
values render as RDF terms (IRI in some namespace, or literal) and how
RDF terms convert back to SQL values.  It loads from / saves to the XML
document format shown below::

    <resource-mapping default-namespace="http://smartground.eu/ns#">
      <attribute name="elem_name" kind="iri"
                 namespace="http://smartground.eu/ns#"/>
      <attribute name="amount" kind="literal" datatype="real"/>
    </resource-mapping>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from ..rdf.namespace import SMG, NamespaceManager
from ..rdf.terms import BNode, IRI, Literal, Term
from ..relational.schema import fold
from .errors import MappingError

_KINDS = ("iri", "literal", "auto")
_DATATYPES = ("text", "integer", "real", "boolean")


@dataclass
class AttributeMapping:
    """Mapping rules for a single relational attribute."""

    name: str
    kind: str = "auto"          # iri | literal | auto
    namespace: str | None = None
    datatype: str = "text"      # for kind=literal

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MappingError(f"unknown mapping kind {self.kind!r}")
        if self.datatype not in _DATATYPES:
            raise MappingError(f"unknown datatype {self.datatype!r}")


class ResourceMapping:
    """Attribute-level SQL <-> RDF value bridge used by the JoinManager."""

    def __init__(self, default_namespace: str | None = None,
                 namespaces: NamespaceManager | None = None) -> None:
        self.default_namespace = default_namespace or SMG.base
        self.namespaces = namespaces or NamespaceManager()
        self._attributes: dict[str, AttributeMapping] = {}

    # -- configuration ------------------------------------------------------

    def map_attribute(self, name: str, kind: str = "auto",
                      namespace: str | None = None,
                      datatype: str = "text") -> AttributeMapping:
        mapping = AttributeMapping(name, kind, namespace, datatype)
        self._attributes[fold(name)] = mapping
        return mapping

    def attribute(self, name: str) -> AttributeMapping:
        found = self._attributes.get(fold(name))
        if found is None:
            return AttributeMapping(name, "auto")
        return found

    # -- SQL value -> RDF term ------------------------------------------------

    def to_term(self, attr: str, value: object) -> Term | None:
        """Render a SQL value as the RDF term the KB would use."""
        if value is None:
            return None
        mapping = self.attribute(attr)
        if mapping.kind == "iri" or (mapping.kind == "auto"
                                     and isinstance(value, str)):
            namespace = mapping.namespace or self.default_namespace
            return IRI(namespace + str(value))
        return Literal(value)

    def concept_to_term(self, name: str) -> IRI:
        """Render an enrichment *concept* argument (e.g. HazardousWaste)."""
        if name.startswith("http://") or name.startswith("https://"):
            return IRI(name)
        if ":" in name:
            return self.namespaces.expand(name)
        return IRI(self.default_namespace + name)

    def property_to_iri(self, name: str) -> IRI:
        """Render an enrichment *property* argument (e.g. dangerLevel)."""
        return self.concept_to_term(name)

    # -- RDF term -> SQL value ---------------------------------------------------

    def to_sql_value(self, term: Term | None) -> object:
        """Convert an RDF term to the SQL value used for joining/output
        (a NaN literal is NULL, as the engine stores it)."""
        if term is None:
            return None
        if isinstance(term, IRI):
            return term.local_name()
        if isinstance(term, Literal):
            value = term.value
            return None if value != value else value
        if isinstance(term, BNode):
            return term.n3()
        raise MappingError(f"cannot convert {term!r} to a SQL value")

    # -- XML round trip --------------------------------------------------------------

    def to_xml(self) -> str:
        root = ET.Element("resource-mapping",
                          {"default-namespace": self.default_namespace})
        for mapping in self._attributes.values():
            attrs = {"name": mapping.name, "kind": mapping.kind}
            if mapping.namespace:
                attrs["namespace"] = mapping.namespace
            if mapping.kind == "literal":
                attrs["datatype"] = mapping.datatype
            ET.SubElement(root, "attribute", attrs)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str,
                 namespaces: NamespaceManager | None = None
                 ) -> "ResourceMapping":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise MappingError(f"bad resource-mapping XML: {exc}") from exc
        if root.tag != "resource-mapping":
            raise MappingError(
                f"expected <resource-mapping>, found <{root.tag}>")
        mapping = cls(root.get("default-namespace"), namespaces)
        for element in root:
            if element.tag != "attribute":
                raise MappingError(
                    f"unexpected element <{element.tag}>")
            name = element.get("name")
            if not name:
                raise MappingError("<attribute> requires a name")
            mapping.map_attribute(
                name,
                element.get("kind", "auto"),
                element.get("namespace"),
                element.get("datatype", "text"),
            )
        return mapping
