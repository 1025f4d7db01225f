"""Pliable private information retrieval with identifiable side information.

A library and CLI simulator for the single-server setting where messages are
partitioned into classes and a user (or a group of collaborating users) wants
any new message from a desired class without revealing which class that is.
The package generates query plans, produces the server's MDS-coded parity
answers, decodes them at the clients, and audits the recovery, privacy, and
rate properties of every run with exact arithmetic.
"""

from .analytics import (
    ComparisonReport,
    PrivacyReport,
    audit_non_repetition,
    comparison_conditions,
    privacy_report,
    query_distribution,
    rate_isi,
    rate_multi,
    rate_naive_multi,
    rate_usi,
    sample_query_distribution,
    tv_distance,
)
from .errors import PpirError
from .exchange import (
    Answer,
    SessionTrace,
    answer_query,
    decode_answer,
    run_session,
    session_generator,
)
from .field import PrimeField
from .mds import (
    Generator,
    build_systematic_generator,
    decode_from_positions,
    encode,
    generator_from_explicit,
    verify_mds,
)
from .queries import (
    Query,
    QueryPlan,
    check_plan,
    generate_multi_user_plan,
    generate_single_user_plan,
    plan_from_pairs,
    query_owner,
)
from .scenario import (
    ClassMap,
    MessageStore,
    RateParams,
    Scenario,
    SideInformation,
    ValidationReport,
    random_store,
    random_symbol,
    sequential_class_map,
    validate_scenario,
)
from .scenario_io import LoadedScenario, load_scenario, scenario_from_dict

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "ClassMap",
    "ComparisonReport",
    "Generator",
    "LoadedScenario",
    "MessageStore",
    "PpirError",
    "PrimeField",
    "PrivacyReport",
    "Query",
    "QueryPlan",
    "RateParams",
    "Scenario",
    "SessionTrace",
    "SideInformation",
    "ValidationReport",
    "answer_query",
    "audit_non_repetition",
    "build_systematic_generator",
    "check_plan",
    "comparison_conditions",
    "decode_answer",
    "decode_from_positions",
    "encode",
    "generate_multi_user_plan",
    "generate_single_user_plan",
    "generator_from_explicit",
    "load_scenario",
    "plan_from_pairs",
    "privacy_report",
    "query_distribution",
    "query_owner",
    "random_store",
    "random_symbol",
    "rate_isi",
    "rate_multi",
    "rate_naive_multi",
    "rate_usi",
    "run_session",
    "sample_query_distribution",
    "scenario_from_dict",
    "sequential_class_map",
    "session_generator",
    "tv_distance",
    "validate_scenario",
    "verify_mds",
]
