#!/usr/bin/env python3
"""Two users generating one collaborative plan on the seven-class scenario.

Each query carries one fresh index for its owning user plus helper blocks of
known indices split between the users, so a single batch of four queries and
a [12, 7] code serves both demands at rate 1/20 (independent runs of the
one-user scheme would only reach 1/24).
"""

from ppir import load_scenario, rate_multi, rate_naive_multi, run_session
from ppir.fixtures import fixture_path

loaded = load_scenario(str(fixture_path("two_user_seven_class.json")))
scenario = loaded.scenario
print(f"{scenario.user_count} users, classes {scenario.class_map.sizes}, "
      f"identifiable: first {scenario.identifiable_count}")
for u, si in enumerate(scenario.users, start=1):
    print(f"  user {u} side-information counts: {si.counts}")
print(f"known-pair budget per user per query: {scenario.params.per_user_known_budget}")

trace = run_session(scenario, (2, 3), seed=4)
disclosed, queries = trace.plan_view
print(f"\nplan (server sees the hint {disclosed} and the pairs only):")
for j, pairs in enumerate(queries, start=1):
    print(f"  query {j}: {list(pairs)}")

for user in trace.users:
    fresh = [f for _, _, f in user.new_messages]
    print(f"user {user.user} (wants class {user.desired_class}): decoded every query, "
          f"new messages {fresh}")

params = scenario.params
print(f"\nachieved rate {trace.rate} (closed form {rate_multi(params)}); "
      f"naive per-user runs would give {rate_naive_multi(params)}")
