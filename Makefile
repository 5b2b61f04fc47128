# Convenience targets; the logic lives in scripts/check.sh so CI and
# humans run exactly the same commands.

.PHONY: test bench-smoke bench-gate analyze lint check ingest-smoke service-smoke cache-smoke cluster-replay

test:
	./scripts/check.sh test

bench-smoke:
	./scripts/check.sh bench-smoke

bench-gate:
	./scripts/check.sh bench-gate

# The repo's own determinism & safety linter (repro.analysis): stdlib-only
# AST rules enforcing the invariants the replay digest matrix checks
# dynamically.  Fails on any unsuppressed finding.
analyze:
	./scripts/check.sh analyze

lint:
	./scripts/check.sh lint

ingest-smoke:
	./scripts/check.sh ingest-smoke

# End-to-end smoke of the always-on replay service: real server process,
# SERVICE_TENANTS concurrent tenants, digest parity, overload rejections.
service-smoke:
	./scripts/check.sh service-smoke

# Content-addressed replay cache smoke: cold/warm digest parity plus the
# forced-corruption miss path, ending with `cache stats` and `cache verify`.
cache-smoke:
	./scripts/check.sh cache-smoke

# The large-scale leg: CLUSTER_JOBS (default 20000) generated jobs replayed
# with the aggregate sink at workers 1 and 4 (peak resident jobs must stay
# under 1% of the tier); the scheduled CI job runs this at CLUSTER_JOBS=100000.
cluster-replay:
	./scripts/check.sh cluster-replay

check:
	./scripts/check.sh all
