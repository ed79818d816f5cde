# Developer entry points. The benches write their JSON artifacts into
# the directory they run from, so bench-json runs from the repo root.

.PHONY: all build test verify recall-gate recover-gate fuzz bench-json stats-drift trace clean

all: build

build:
	dune build

test:
	dune runtest

# The one command a PR must pass: full build plus the unit, property,
# differential and cram suites, the fuzzer's guided-vs-random
# acceptance over the false-negative corpus, and the injection recall
# gate.
verify:
	dune build && dune runtest && $(MAKE) fuzz && $(MAKE) recall-gate && $(MAKE) recover-gate

# The recall gate: the seed-1 injection campaign must report a closed
# pointer-arith blind spot (0 since the offset lattice) and static-tier
# recall at or above the 209-mutant bar of the pre-offset population.
recall-gate:
	dune build bench/main.exe
	DEEPMC_BENCH_SEED=1 dune exec bench/main.exe -- recall --json > /dev/null
	grep -q '"known_blind_spot": 0' BENCH_inject.json
	@detected=$$(sed -n 's/.*"static_tier_detected": \([0-9]*\).*/\1/p' BENCH_inject.json); \
	mutants=$$(sed -n 's/.*"static_tier_mutants": \([0-9]*\).*/\1/p' BENCH_inject.json); \
	if [ "$$detected" -lt 209 ] || [ "$$detected" -lt "$$mutants" ]; then \
	  echo "recall gate FAILED: $$detected/$$mutants (need >= 209 and full recall)"; exit 1; \
	else \
	  echo "recall gate OK: $$detected/$$mutants detected, blind spot 0"; \
	fi

# The recovery gate: the seed-1 corruption-operator campaign must
# detect every mutant through the recovery executor, with the
# CRC-guarded base verifying clean.
recover-gate:
	dune build bench/main.exe
	DEEPMC_BENCH_SEED=1 dune exec bench/main.exe -- recover --json > /dev/null
	grep -q '"all_detected": true' BENCH_recover.json
	grep -q '"clean": true' BENCH_recover.json
	@echo "recovery gate OK: all corruption mutants detected, guarded base clean"

# Deterministic, CI-safe smoke of the interleaving fuzzer: seed-1
# campaigns over the injection campaign's known misses (sub-second at
# the default budget; raise DEEPMC_FUZZ_BUDGET to fuzz harder).
fuzz:
	dune build bench/main.exe
	dune exec bench/main.exe -- fuzz

# Regenerate the committed benchmark artifacts. Figure 12's numbers are
# timing-dependent; the inject, recover and fuzz matrices are
# deterministic for a fixed DEEPMC_BENCH_SEED (default 1). Speed is
# measured by bench/e2e, not here.
bench-json:
	dune build bench/main.exe
	dune exec bench/main.exe -- figure12 --json
	dune exec bench/main.exe -- recall --json
	dune exec bench/main.exe -- recover --json
	dune exec bench/main.exe -- fuzz --json
	@for f in BENCH_dynamic.json BENCH_inject.json BENCH_recover.json \
	  BENCH_fuzz.json; do \
	  [ -s $$f ] || { echo "bench-json: $$f missing or empty" >&2; exit 1; }; \
	done

# Instrument-catalog drift gate: regenerate `deepmc stats` and diff it
# against the catalog pinned in test/cram/obs.t. A new or renamed
# instrument must update the pin in the same change.
stats-drift:
	dune build
	@mkdir -p _artifacts
	@awk '/^  \$$ deepmc stats$$/{f=1;next} f&&/^$$/{exit} f{sub(/^  /,"");print}' \
	  test/cram/obs.t > _artifacts/stats.pinned
	@dune exec bin/deepmc_cli.exe -- stats > _artifacts/stats.current 2>/dev/null
	@diff -u _artifacts/stats.pinned _artifacts/stats.current \
	  && echo "stats-drift: instrument catalog matches the cram pin" \
	  || { echo "stats-drift: catalog drifted from test/cram/obs.t" >&2; exit 1; }

# Telemetry artifacts for one corpus-slice check: a Chrome trace (open
# _artifacts/trace.json in chrome://tracing or Perfetto) and the
# metrics-registry snapshot. The leading '-' keeps make going: the
# program has 3 known warnings, so deepmc exits non-zero by design.
trace:
	dune build
	mkdir -p _artifacts
	-dune exec bin/deepmc_cli.exe -- check examples/programs/pqueue.nvmir \
	  --strict --no-dynamic \
	  --metrics-json _artifacts/metrics.json --trace-out _artifacts/trace.json
	@echo "wrote _artifacts/metrics.json and _artifacts/trace.json"

clean:
	dune clean
