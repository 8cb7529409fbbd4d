"""Integrating national databanks (Section I-A + Fig. 1).

SmartGround "integrates existing information from national and
international databanks".  This example builds three national sources
with heterogeneous schemas, exposes them through the GAV mediator as a
single ``eu_landfill`` view, attaches one source via a foreign table
(the postgres_fdw path), and finally runs a contextually-enriched SESQL
query over the integrated view.

Run:  python examples/federated_databanks.py
"""

from repro.core import SESQLEngine
from repro.federation import (Mediator, RemoteTableSource,
                              attach_foreign_table)
from repro.rdf import parse_turtle
from repro.relational import Database


def national_source(country: str, rows: list[tuple]) -> Database:
    db = Database(country)
    db.execute("""CREATE TABLE sites (
        site_name TEXT, town TEXT, main_material TEXT, tonnes REAL)""")
    db.insert_rows("sites", (
        {"site_name": name, "town": town,
         "main_material": material, "tonnes": tonnes}
        for name, town, material, tonnes in rows))
    return db


def main() -> None:
    italy = national_source("italy", [
        ("lf_it_01", "Torino", "Mercury", 12.0),
        ("lf_it_02", "Milano", "Iron", 140.0),
        ("lf_it_03", "Genova", "Asbestos", 3.5)])
    france = national_source("france", [
        ("lf_fr_01", "Lyon", "Mercury", 7.25),
        ("lf_fr_02", "Lille", "Copper", 55.0)])
    spain = national_source("spain", [
        ("lf_es_01", "Bilbao", "Lead", 9.0)])

    # -- GAV mediation: one global view over three sources -------------------
    mediator = Mediator()
    for name, db in (("italy", italy), ("france", france),
                     ("spain", spain)):
        mediator.register_source(name, db)
    fragment_sql = ("SELECT site_name, town, main_material, tonnes "
                    "FROM sites")
    mediator.define_view("eu_landfill", [
        ("italy", fragment_sql), ("france", fragment_sql),
        ("spain", fragment_sql)])

    result, report = mediator.query("""
        SELECT main_material, COUNT(*) AS sites, SUM(tonnes) AS total
        FROM eu_landfill GROUP BY main_material ORDER BY total DESC""")
    print("Mediated EU-wide rollup:")
    print(result.format_table())
    print(f"  sub-queries shipped: {len(report.sub_queries)}, "
          f"rows per source: {report.rows_per_source}")

    # -- postgres_fdw path: France's table attached into Italy's catalog ---------
    attach_foreign_table(italy, "sites_fr",
                         RemoteTableSource(france, "sites"))
    joined = italy.query("""
        SELECT l.site_name, f.site_name
        FROM sites l JOIN sites_fr f ON l.main_material = f.main_material""")
    print("\nCross-border same-material pairs via the foreign table:")
    print(joined.format_table())

    # -- SESQL over the integrated view ----------------------------------------------
    integrated = Database("integrated")
    integrated.execute("""CREATE TABLE eu_landfill (
        site_name TEXT, town TEXT, main_material TEXT, tonnes REAL)""")
    view_rows, _ = mediator.query("SELECT * FROM eu_landfill")
    integrated.insert_rows("eu_landfill", view_rows.to_dicts())

    knowledge = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury  smg:dangerLevel "high" .
        smg:Asbestos smg:dangerLevel "extreme" .
        smg:Lead     smg:dangerLevel "high" .
        smg:Torino smg:inCountry smg:Italy .
        smg:Genova smg:inCountry smg:Italy .
        smg:Milano smg:inCountry smg:Italy .
        smg:Lyon smg:inCountry smg:France .
        smg:Lille smg:inCountry smg:France .
        smg:Bilbao smg:inCountry smg:Spain .
    """)
    engine = SESQLEngine(integrated, knowledge)
    outcome = engine.execute("""
        SELECT site_name, town, main_material FROM eu_landfill
        ENRICH
        SCHEMAREPLACEMENT(town, inCountry)
        SCHEMAEXTENSION(main_material, dangerLevel)
    """)
    print("\nContextually-enriched view of the integrated databank:")
    print(outcome.result.format_table())


if __name__ == "__main__":
    main()
