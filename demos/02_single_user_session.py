#!/usr/bin/env python3
"""One full single-user retrieval on the bundled five-class scenario.

The user wants any new message from class 3 (identifiable).  The plan hides
that demand behind four queries whose subclass indices never repeat; the
server answers each with three parity rows and learns nothing else.
"""

from ppir import load_scenario, run_session, validate_scenario
from ppir.fixtures import fixture_path

loaded = load_scenario(str(fixture_path("five_class.json")))
scenario = loaded.scenario
print(f"classes: {scenario.class_map.sizes}, identifiable: first {scenario.identifiable_count}")
print(f"side-information counts per class: {scenario.users[0].counts}")
print(f"largest unidentifiable count: {scenario.params.max_unidentified_count} "
      f"-> {scenario.params.query_count} queries per plan")

report = validate_scenario(scenario, "single")
print(f"assumptions: {'all hold' if report.ok else report.failed()}")

trace = run_session(scenario, 3, seed=5, explicit_generator=loaded.explicit_generator)
disclosed, queries = trace.plan_view
print(f"\nserver sees only the code-dimension hint ({disclosed}) and these pairs:")
for j, pairs in enumerate(queries, start=1):
    print(f"  query {j}: {list(pairs)}")

print(f"\nanswers: {len(trace.answers)} x {len(trace.answers[0].parities)} parity rows "
      f"x {scenario.store.symbols_per_message} symbols")
user = trace.users[0]
print(f"user decoded queries {list(user.decoded_queries)}; "
      f"new class-3 messages {[f for _, _, f in user.new_messages]}")
print(f"witness contents: {user.witness_symbols}")
print(f"downloaded {trace.downloaded_symbols} symbols for a rate of {trace.rate}")
