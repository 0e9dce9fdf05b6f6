# Tier-1 verify and CI entry points for the intra-replication workspace.
#
#   make verify     — exactly the tier-1 gate from ROADMAP.md
#   make ci         — everything CI runs (verify + examples + gates + fmt)
#   make footprint  — manual, not in `make ci`: peak live heap per physical
#                     rank of every app × mode (thread world, `full` scale)

CARGO ?= cargo
CAMPAIGN_JOBS ?= 4
# Relative tolerance for the campaign regression gate; 0 = bit-exact
# (the simulation is deterministic, so the default gate is exact).
CAMPAIGN_TOL ?= 0

.PHONY: all build test verify bench-build docs fmt fmt-check clippy \
        campaign-smoke failures-smoke weak-smoke serve-smoke benchmark-quick \
        stuck-smoke bit-identity-release figures-smoke schedulers-smoke \
        ckpt-smoke golden golden-failures golden-schedulers golden-weak golden-ckpt \
        golden-figures benchmark footprint \
        api-surface api-surface-check narrow-probe loc ci clean

all: build

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# Tier-1 verify (ROADMAP.md): must stay green on every PR.
verify:
	$(CARGO) build --release && $(CARGO) test -q

# The kernels' bit-identity oracles again in release mode: tier-1 runs the
# tests in debug, and the fast paths they check (truncation for `floor`,
# a multiply for a division) are floating-point codegen.
bit-identity-release:
	$(CARGO) test --release -p kernels --test bit_identity

# The examples must keep compiling even when not run.
bench-build:
	$(CARGO) build --examples

# API docs for the whole workspace; warnings are errors (ipr-core and
# kernels additionally deny missing_docs at compile time).
docs:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

# Lints are errors, everywhere (lib/bins/tests/examples).
clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The CI determinism/regression gate, reproducible locally: run the smoke
# campaign grid and compare it against the checked-in golden baseline.
campaign-smoke:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid smoke --jobs $(CAMPAIGN_JOBS) \
		--out target/campaign-smoke.json --csv target/campaign-smoke.csv
	./target/release/campaign diff crates/campaign/golden/smoke.json \
		target/campaign-smoke.json --tol $(CAMPAIGN_TOL)

# The failure-model gate: run the failure sweep (fitted MTBF hazards and
# correlated node/rack domains included) at two job counts, require both
# reports byte-identical, then gate on the checked-in golden baseline.
failures-smoke:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid failures --jobs 1 \
		--out target/campaign-failures-j1.json
	./target/release/campaign run --grid failures --jobs 8 \
		--out target/campaign-failures.json --csv target/campaign-failures.csv
	./target/release/campaign diff target/campaign-failures-j1.json \
		target/campaign-failures.json --tol 0
	./target/release/campaign diff crates/campaign/golden/failures.json \
		target/campaign-failures.json --tol $(CAMPAIGN_TOL)

# The scheduler gate: every scheduler kind on every application (the
# `schedulers` grid) and the broad `full` grid (adaptive under Poisson
# failures included), each at two job counts, both reports byte-identical,
# then each gated on its checked-in golden baseline.
schedulers-smoke:
	$(CARGO) build --release -p campaign
	@set -e; for grid in schedulers full; do \
		./target/release/campaign run --grid $$grid --jobs 1 \
			--out target/campaign-$$grid-j1.json; \
		./target/release/campaign run --grid $$grid --jobs 8 \
			--out target/campaign-$$grid.json; \
		./target/release/campaign diff target/campaign-$$grid-j1.json \
			target/campaign-$$grid.json --tol 0; \
		./target/release/campaign diff crates/campaign/golden/$$grid.json \
			target/campaign-$$grid.json --tol $(CAMPAIGN_TOL); \
	done

# The event-engine gate: the weak-scaling smoke sweep, the Weibull and
# rack-correlated failure sweep (native, replicated and intra rows), the
# 200 000-rank point and the 1 000 000-rank point must each match their
# checked-in golden baseline bit-exactly, and the 10k-logical-rank sweep
# must still run.  Each sweep
# runs once: the engine is one loop, there is no second configuration to
# compare against.
weak-smoke:
	$(CARGO) build --release -p campaign
	./target/release/campaign weak --sweep weak-smoke \
		--out target/weak-smoke.json
	./target/release/campaign diff crates/campaign/golden/weak_scaling.json \
		target/weak-smoke.json --tol 0
	./target/release/campaign weak --sweep weak-failures \
		--out target/weak-failures.json
	./target/release/campaign diff crates/campaign/golden/weak_failures.json \
		target/weak-failures.json --tol 0
	./target/release/campaign weak --sweep weak-10k > /dev/null
	./target/release/campaign weak --sweep weak-100k \
		--out target/weak-100k.json
	./target/release/campaign diff crates/campaign/golden/weak_100k.json \
		target/weak-100k.json --tol 0
	./target/release/campaign weak --sweep weak-1m \
		--out target/weak-1m.json
	./target/release/campaign diff crates/campaign/golden/weak_1m.json \
		target/weak-1m.json --tol 0

# The campaign-service gate: submit the smoke grid to a fresh spool twice
# and drain it through `campaign serve` with a fresh run cache.  The second
# pass must be a pure cache replay (0 runs executed), its final report must
# be byte-identical to the first pass, and both must diff clean against the
# checked-in golden baseline.  The cache directory must hold its one log and
# nothing else, with one line per run the first pass executed: no per-entry
# files, and a warm pass appends nothing.
serve-smoke:
	$(CARGO) build --release -p campaign
	rm -rf target/serve-smoke
	./target/release/campaign submit --spool target/serve-smoke/spool \
		--id first --grid smoke
	./target/release/campaign serve --spool target/serve-smoke/spool \
		--cache-dir target/serve-smoke/cache --jobs $(CAMPAIGN_JOBS) --drain
	./target/release/campaign submit --spool target/serve-smoke/spool \
		--id second --grid smoke
	./target/release/campaign serve --spool target/serve-smoke/spool \
		--cache-dir target/serve-smoke/cache --jobs $(CAMPAIGN_JOBS) --drain
	@grep -q '"executed": 0,' target/serve-smoke/spool/done/second.json || \
		(echo "error: warm re-sweep executed runs (expected 100% cache hits)" && exit 1)
	@test "$$(ls -A target/serve-smoke/cache)" = entries.jsonl || \
		(echo "error: the run cache holds more than its one log: $$(ls -A target/serve-smoke/cache)" && exit 1)
	@runs=$$(sed -n 's/.*"executed": \([0-9]*\),.*/\1/p' target/serve-smoke/spool/done/first.json); \
		lines=$$(wc -l < target/serve-smoke/cache/entries.jsonl); \
		test "$$lines" -eq "$$runs" || \
		(echo "error: the cache log has $$lines lines, the first pass executed $$runs runs" && exit 1)
	cmp target/serve-smoke/spool/results/first.json \
		target/serve-smoke/spool/results/second.json
	./target/release/campaign diff crates/campaign/golden/smoke.json \
		target/serve-smoke/spool/results/second.json --tol $(CAMPAIGN_TOL)

# The checkpoint/restart gate: run the replication-vs-C/R grid (Young /
# Daly intervals against the fitted MTBF hazards) at two job counts,
# require both reports byte-identical, then gate on the checked-in golden
# baseline.
ckpt-smoke:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid ckpt --jobs 1 \
		--out target/campaign-ckpt-j1.json
	./target/release/campaign run --grid ckpt --jobs 8 \
		--out target/campaign-ckpt.json --csv target/campaign-ckpt.csv
	./target/release/campaign diff target/campaign-ckpt-j1.json \
		target/campaign-ckpt.json --tol 0
	./target/release/campaign diff crates/campaign/golden/ckpt.json \
		target/campaign-ckpt.json --tol $(CAMPAIGN_TOL)

# The figure gate: every table the `figures` binary prints at scale `small`
# (fig5, fig5a, fig5b, fig6a-d and the four ablations) must match the
# checked-in text byte for byte — virtual time does not depend on the host.
figures-smoke:
	$(CARGO) run --release -q -p ipr-bench --bin figures -- all small | \
		cmp - crates/bench/golden/figures_small.txt

# The stuck-run gate: thread-world runs that can no longer make progress
# (45 crash specs of the catalog apps without a checkpoint plan, four
# hand-built stuck shapes) must end by themselves within their in-test
# deadlines.  `timeout` is the backstop: a regression fails, never stalls.
# (One command: the facade and `simmpi` each have a `stuck_runs` test target.)
stuck-smoke:
	timeout 120 $(CARGO) test --release --test stuck_runs

# The benchmark BENCHMARK.json declares (benchmarks/README.md): every
# workload at full size, end-to-end metrics on standard output.
benchmark:
	bash benchmarks/run.sh

# The CI form: every workload at tiny sizes, checks only — never wall-clock
# numbers, so it stays green on arbitrarily slow shared runners — then the
# benchmark crate's own unit tests.
benchmark-quick:
	bash benchmarks/run.sh --quick && cd benchmarks && $(CARGO) test --offline -q

# Regenerate the checked-in dump of the workspace's `pub` API surface
# (grep-based, no network; see scripts/api-surface.sh).  Run it whenever a
# PR changes the public API and commit the diff.
api-surface:
	./scripts/api-surface.sh > docs/api-surface.txt

# The CI drift gate: the dumped surface must match the checked-in file.
api-surface-check:
	@mkdir -p target
	./scripts/api-surface.sh > target/api-surface.txt
	@diff -u docs/api-surface.txt target/api-surface.txt || \
		(echo "error: public API surface drifted — run 'make api-surface' and commit docs/api-surface.txt" && exit 1)

# Regenerate the golden baseline after an intentional behaviour change
# (review the diff before committing!).
golden:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid smoke --jobs $(CAMPAIGN_JOBS) \
		--strip-informational --out crates/campaign/golden/smoke.json

# Same, for the failure-model sweep baseline.
golden-failures:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid failures --jobs $(CAMPAIGN_JOBS) \
		--strip-informational --out crates/campaign/golden/failures.json

# Same, for the two scheduler-gate baselines.
golden-schedulers:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid schedulers --jobs $(CAMPAIGN_JOBS) \
		--strip-informational --out crates/campaign/golden/schedulers.json
	./target/release/campaign run --grid full --jobs $(CAMPAIGN_JOBS) \
		--strip-informational --out crates/campaign/golden/full.json

# Same, for the four event-engine weak-scaling baselines.
golden-weak:
	$(CARGO) build --release -p campaign
	./target/release/campaign weak --sweep weak-smoke \
		--strip-informational --out crates/campaign/golden/weak_scaling.json
	./target/release/campaign weak --sweep weak-failures \
		--strip-informational --out crates/campaign/golden/weak_failures.json
	./target/release/campaign weak --sweep weak-100k \
		--strip-informational --out crates/campaign/golden/weak_100k.json
	./target/release/campaign weak --sweep weak-1m \
		--strip-informational --out crates/campaign/golden/weak_1m.json

# Same, for the checkpoint/restart sweep baseline.
golden-ckpt:
	$(CARGO) build --release -p campaign
	./target/release/campaign run --grid ckpt --jobs $(CAMPAIGN_JOBS) \
		--strip-informational --out crates/campaign/golden/ckpt.json

# Same, for the figure tables.
golden-figures:
	$(CARGO) run --release -q -p ipr-bench --bin figures -- all small \
		> crates/bench/golden/figures_small.txt

# Manual, not part of `make ci` (about 3 minutes on 2 vCPUs): lists the
# public declarations no other crate, test, example, doc example or the
# benchmark needs, by narrowing each to `pub(crate)` on a scratch copy under
# target/narrow-probe until every check builds again (see
# scripts/narrow-probe.sh).  Every item it prints should be narrowed, or
# listed with its reason in docs/api-intended.txt.  Never edits the checkout.
narrow-probe:
	bash scripts/narrow-probe.sh

# Manual, not part of `make ci` (about a second after the build): the peak
# live heap bytes per physical rank of every application in native,
# replicated2 and intra2 at the `full` scale on 4 logical processes, counted
# by shims/alloc-counter, so host memory is attributable per layer.  Only
# GTC is gated (tier-1, crates/apps/tests/thread_footprint.rs); this prints
# the whole table and gates nothing.
footprint:
	$(CARGO) test --release -q -p apps --test thread_footprint -- \
		--ignored --nocapture

# The two sizes ROADMAP.md says must go down (non-test Rust lines, API
# surface lines), printed for every PR to see; never gating.
loc:
	-bash scripts/loc.sh

ci: verify bit-identity-release stuck-smoke bench-build docs fmt-check clippy api-surface-check campaign-smoke figures-smoke failures-smoke schedulers-smoke weak-smoke ckpt-smoke serve-smoke benchmark-quick loc

clean:
	$(CARGO) clean
