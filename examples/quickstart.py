"""Quickstart: a SESQL query in twenty lines.

Builds a tiny databank and a personal knowledge base, then runs the
paper's Example 4.1 — extending a relational result with the user's own
``dangerLevel`` knowledge.

Run:  python examples/quickstart.py
"""

import repro
from repro.core import SESQLEngine
from repro.rdf import parse_turtle
from repro.relational import Database


def main() -> None:
    # 1. The shared, factual databank (the "Main Platform").
    databank = Database()
    databank.execute_script("""
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO elem_contained VALUES
            ('a', 'Mercury', 12.0),
            ('a', 'Asbestos', 3.5),
            ('a', 'Iron', 140.0),
            ('b', 'Mercury', 7.25);
    """)

    # 2. The user's personal, contextual knowledge (the "Semantic
    #    Platform"): plain RDF in Turtle.
    knowledge = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury  smg:dangerLevel "high" .
        smg:Asbestos smg:dangerLevel "extreme" .
    """)

    # 3. A SESQL query: SQL + ENRICH (paper Example 4.1).
    engine = SESQLEngine(databank, knowledge)
    query = """
        SELECT elem_name, landfill_name
        FROM elem_contained
        WHERE landfill_name = 'a'
        ENRICH
        SCHEMAEXTENSION( elem_name, dangerLevel)
    """
    outcome = engine.execute(query)

    print("Enriched result:")
    print(outcome.result.format_table())
    print("\nSPARQL the SQM generated: ", outcome.sparql_queries[0])
    plan = repro.connect(engine).explain(query)
    print("JoinManager stage:", plan.stages[-1].format())


if __name__ == "__main__":
    main()
