# Developer entry points. The benches write their JSON artifacts into
# the directory they run from, so bench-json runs from the repo root.

.PHONY: all build test verify front-door recall-gate recover-gate fuzz bench-json bench-drift bench-pairs stats-drift size trace clean

all: build

build:
	dune build

test:
	dune runtest

# The one command a PR must pass: full build plus the unit, property,
# differential and cram suites, the front-door check, the
# instrument-catalog and artifact drift gates (the latter runs the
# inject, recover and fuzz matrices once, so the fuzzer's
# guided-vs-random acceptance over the false-negative corpus must match
# the committed BENCH_fuzz.json), and the recall and recovery gates
# over those regenerated matrices.
verify:
	dune build && dune runtest && $(MAKE) front-door stats-drift bench-drift recall-gate recover-gate

# One front door: Driver.analyze is the only code in lib/, bin/ and
# examples/ that records a run and sweeps it for the crash tiers.
# Outside lib/core/driver.ml and the two wrappers the benchmark calls
# (lib/core/crash_sweep.ml and Recover.verify in lib/recover/recover.ml),
# a call of Crash_space.record, Crash_space.sweep or Recover.start
# fails, and so does any call of Crash_sweep.explore_program, which only
# the benchmark's per-layer split may use. The CLI builds one analysis
# request for check, explain, crash-explore and recover, so bin/ holds
# one Driver.analyze call; a second fails.
FRONT_DOOR := (Crash_space\.(record|sweep)|Recover\.start)([^A-Za-z0-9_]|$$)
BENCH_ONLY := Crash_sweep\.explore_program([^A-Za-z0-9_]|$$)
ANALYZE := Driver\.analyze([^A-Za-z0-9_]|$$)

front-door:
	@hits=$$( { grep -rnE '$(FRONT_DOOR)' lib bin examples --include='*.ml' \
	  | grep -vE '^lib/(core/driver|core/crash_sweep|recover/recover)\.ml:'; \
	  grep -rnE '$(BENCH_ONLY)' lib bin examples --include='*.ml'; \
	  awk -v re='$(FRONT_DOOR)' '/^let verify /{v=1; next} /^let /{v=0} \
	    !v && $$0 ~ re {print FILENAME ":" FNR ": " $$0}' \
	    lib/recover/recover.ml; } ); \
	if [ -n "$$hits" ]; then \
	  echo "front-door: record or sweep outside Driver.analyze:" >&2; \
	  echo "$$hits" >&2; exit 1; \
	else echo "front-door: Driver.analyze is the only recording and sweeping caller"; fi
	@calls=$$(grep -rnoE '$(ANALYZE)' bin --include='*.ml'); \
	if [ $$(printf '%s' "$$calls" | grep -c .) -gt 1 ]; then \
	  echo "front-door: more than one Driver.analyze call in bin/:" >&2; \
	  echo "$$calls" >&2; exit 1; \
	else echo "front-door: bin/ makes one Driver.analyze call"; fi

# The recall gate: the seed-1 injection campaign must report a closed
# pointer-arith blind spot (0 since the offset lattice) and static-tier
# recall at or above the 209-mutant bar of the pre-offset population.
# It reads the matrix bench-drift regenerates, not the committed file.
recall-gate: bench-drift
	grep -q '"known_blind_spot": 0' $(DRIFT)/BENCH_inject.json
	@detected=$$(sed -n 's/.*"static_tier_detected": \([0-9]*\).*/\1/p' $(DRIFT)/BENCH_inject.json); \
	mutants=$$(sed -n 's/.*"static_tier_mutants": \([0-9]*\).*/\1/p' $(DRIFT)/BENCH_inject.json); \
	if [ "$$detected" -lt 209 ] || [ "$$detected" -lt "$$mutants" ]; then \
	  echo "recall gate FAILED: $$detected/$$mutants (need >= 209 and full recall)"; exit 1; \
	else \
	  echo "recall gate OK: $$detected/$$mutants detected, blind spot 0"; \
	fi

# The recovery gate: the seed-1 corruption-operator campaign must
# detect every mutant through the recovery executor, with the
# CRC-guarded base verifying clean (again read from bench-drift's
# regenerated matrix).
recover-gate: bench-drift
	grep -q '"all_detected": true' $(DRIFT)/BENCH_recover.json
	grep -q '"clean": true' $(DRIFT)/BENCH_recover.json
	@echo "recovery gate OK: all corruption mutants detected, guarded base clean"

# Deterministic, CI-safe smoke of the interleaving fuzzer: seed-1
# campaigns over the injection campaign's known misses (sub-second at
# the default budget; raise DEEPMC_FUZZ_BUDGET to fuzz harder).
fuzz:
	dune build bench/main.exe
	dune exec bench/main.exe -- fuzz

# Regenerate the committed benchmark artifacts. Figure 12's numbers are
# timing-dependent. The inject, recover and fuzz matrices are
# deterministic for a fixed DEEPMC_BENCH_SEED (default 1), and so are
# their telemetry blocks, which leave out timings and the pool's
# scheduling counts. Speed is measured by bench/e2e, not here.
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

# Alternating base/change runs of one end-to-end workload:
#   make bench-pairs BASE=<rev> W=<workload> N=<pairs> S=<seconds>
# builds BASE's bench/e2e/main.exe in a temporary git worktree under
# _artifacts/, then runs BASE's binary and this tree's N times each,
# S seconds a run, alternating which side runs first, and prints
# `main.exe compare` of the two result files (BASE is A, this tree
# is B). SEED (default 1) picks the workload's input stream, so a
# claim can be checked on a seed not used while writing the change.
BASE ?= HEAD
W ?= synth-wide
N ?= 3
S ?= 8
SEED ?= 1
PAIRS := _artifacts/bench-pairs

bench-pairs:
	dune build --cache=disabled ./bench/e2e/main.exe
	rm -rf $(PAIRS) && mkdir -p $(PAIRS) && git worktree prune
	git worktree add --detach $(PAIRS)/base $(BASE)
	@dune build --root $(PAIRS)/base --cache=disabled ./bench/e2e/main.exe \
	  && cp $(PAIRS)/base/_build/default/bench/e2e/main.exe $(PAIRS)/base.exe; \
	  status=$$?; git worktree remove --force $(PAIRS)/base; exit $$status
	@for i in $$(seq $(N)); do \
	  echo "bench-pairs: pair $$i/$(N)"; \
	  if [ $$((i % 2)) -eq 1 ]; then order="base change"; \
	  else order="change base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then exe=$(PAIRS)/base.exe; \
	    else exe=_build/default/bench/e2e/main.exe; fi; \
	    $$exe --workload $(W) --seed $(SEED) --seconds $(S) \
	      --out $(PAIRS)/$$side.jsonl > /dev/null || exit 1; \
	  done; \
	done
	_build/default/bench/e2e/main.exe compare $(PAIRS)/base.jsonl \
	  $(PAIRS)/change.jsonl

# The two size numbers a simplicity change is judged by: the .ml/.mli
# lines over lib/, bin/, bench/main.ml and examples/, and the optional
# parameters the library interfaces declare (one per `?name:`).
size:
	@printf 'lines: '; find lib bin examples \( -name '*.ml' -o -name '*.mli' \) \
	  -print0 | xargs -0 cat bench/main.ml | wc -l
	@printf 'options: '; grep -ohE '\?[a-z_][a-z0-9_]*\s*:' lib/*/*.mli | wc -l

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

# Benchmark-artifact drift gate: regenerate the seed-determined
# artifacts (the inject, recover and fuzz matrices at
# DEEPMC_BENCH_SEED=1) into _artifacts/bench-drift, leaving the working
# tree alone, and diff them against the committed files. Figure 12's
# BENCH_dynamic.json holds timings, so it is left out.
DRIFT := _artifacts/bench-drift

bench-drift:
	dune build bench/main.exe
	@rm -rf $(DRIFT) && mkdir -p $(DRIFT)
	@cd $(DRIFT) && for s in recall recover fuzz; do \
	  DEEPMC_BENCH_SEED=1 ../../_build/default/bench/main.exe $$s --json \
	    > /dev/null || exit 1; \
	done
	@status=0; for f in BENCH_inject.json BENCH_recover.json BENCH_fuzz.json; do \
	  diff -u $$f $(DRIFT)/$$f || status=1; \
	done; \
	if [ $$status -eq 0 ]; then \
	  echo "bench-drift: inject, recover and fuzz artifacts match the committed files"; \
	else echo "bench-drift: artifacts drifted from the committed files" >&2; exit 1; fi

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
