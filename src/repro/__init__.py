"""repro -- a reimplementation of the Arb system (Koch, VLDB 2003).

Expressive node-selecting queries (unary MSO, written as TMNF / caterpillar
programs or a Core-XPath-like fragment) evaluated on XML trees with selecting
tree automata: two linear passes over the data in secondary storage, lazily
computed automata represented as residual propositional Horn programs, and
main-memory use independent of the document size.

Quick start
-----------
>>> from repro import Database
>>> db = Database.from_xml("<lib><book><title>x</title></book><dvd/></lib>")
>>> db.query("QUERY :- V.Label[book];").count()
1
"""

from repro.baselines.datalog import evaluate_fixpoint
from repro.collection import Collection, CollectionQueryResult, DocumentQueryResult
from repro.core.two_phase import EvaluationResult, EvaluationStatistics, TwoPhaseEvaluator
from repro.engine import BatchQueryResult, Database, QueryResult, compile_query
from repro.errors import ReproError
from repro.plan import PlanCache, QueryPlan, default_plan_cache
from repro.service import ArbServer, QueryService, ServiceResponse, ServiceStats
from repro.storage.bufferpool import BufferPool, default_buffer_pool, resolve_pager
from repro.storage.database import ArbDatabase
from repro.storage.paging import IOStatistics, PagerConfig
from repro.storage.update import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    UpdateResult,
    UpdateStatistics,
)
from repro.tmnf.program import TMNFProgram
from repro.tree.binary import BinaryTree
from repro.tree.unranked import UnrankedNode, UnrankedTree
from repro.tree.xml_io import parse_xml, parse_xml_file
from repro.xpath.translate import xpath_to_program

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Database",
    "QueryResult",
    "BatchQueryResult",
    "Collection",
    "CollectionQueryResult",
    "DocumentQueryResult",
    "QueryPlan",
    "PlanCache",
    "default_plan_cache",
    "QueryService",
    "ServiceResponse",
    "ServiceStats",
    "ArbServer",
    "compile_query",
    "TMNFProgram",
    "TwoPhaseEvaluator",
    "EvaluationResult",
    "EvaluationStatistics",
    "ArbDatabase",
    "BufferPool",
    "PagerConfig",
    "IOStatistics",
    "default_buffer_pool",
    "resolve_pager",
    "Relabel",
    "DeleteSubtree",
    "InsertSubtree",
    "UpdateResult",
    "UpdateStatistics",
    "BinaryTree",
    "UnrankedTree",
    "UnrankedNode",
    "parse_xml",
    "parse_xml_file",
    "xpath_to_program",
    "evaluate_fixpoint",
    "ReproError",
]
