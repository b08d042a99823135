PYTHON ?= python
export PYTHONPATH := src

.PHONY: bench-record bench-diff frame-census sim-identical twins test test-fast test-obs smoke-obs smoke-assemble smoke-mux smoke-flow smoke-telemetry smoke-tune chaos chaos-sweep chaos-resume chaos-mux chaos-mesh chaos-tune live-chaos diff-gate golden-gate golden-capture golden-soak

test:
	$(PYTHON) -m pytest -x -q

test-obs:
	$(PYTHON) -m pytest -q tests/obs tests/test_obs_smoke.py

# Run a traced simnet scenario end to end, validate the exported JSON
# lines against the observability schema, and render the report.
smoke-obs:
	$(PYTHON) -m pytest -q tests/test_obs_smoke.py
	$(PYTHON) examples/auto_selection.py --trace /tmp/repro-obs-smoke.jsonl
	$(PYTHON) -m repro.obs.report /tmp/repro-obs-smoke.jsonl

# Routed 3-node chaos transfer -> per-node JSONL exports -> assembled
# causal trace; the checker asserts the initiator/relay/target hop
# structure (the PR-4 tentpole, end to end).
ASSEMBLE_DIR := /tmp/repro-assemble-smoke

smoke-assemble:
	rm -rf $(ASSEMBLE_DIR)
	$(PYTHON) -m repro.chaos --scenario wan_transfer_routed --sessions \
		--seed 3 --plan "relay_crash@2:for=4" --export-dir $(ASSEMBLE_DIR)
	$(PYTHON) -m repro.obs.assemble $(ASSEMBLE_DIR)/*.jsonl
	$(PYTHON) -m repro.obs.assemble $(ASSEMBLE_DIR)/*.jsonl --json \
		| $(PYTHON) scripts/check_assembled_trace.py

# Routed 3-node muxed fan-in: 32 channels over ONE carrier through the
# relay -> per-node JSONL exports -> assembled causal trace; the checker
# additionally asserts the cross-node muxed-conversation shape.
MUX_SMOKE_DIR := /tmp/repro-mux-smoke

smoke-mux:
	rm -rf $(MUX_SMOKE_DIR)
	$(PYTHON) -m repro.chaos --scenario mux_fanin --seed 3 \
		--export-dir $(MUX_SMOKE_DIR)
	$(PYTHON) -m repro.obs.assemble $(MUX_SMOKE_DIR)/*.jsonl
	$(PYTHON) -m repro.obs.assemble $(MUX_SMOKE_DIR)/*.jsonl --json \
		| $(PYTHON) scripts/check_assembled_trace.py --mux

# Fleet-scale flow-tier smoke: 100k endpoints fan into one hub across
# a mid-run partition, full invariant suite, <20s wall-clock (a run takes
# ≈ 1.5–2 s) and <80 MB peak-RSS budgets (≈ 69 MB measured; docs/SIMNET.md).
smoke-flow:
	$(PYTHON) scripts/smoke_flow.py

# Telemetry plane + canary gate smoke (docs/ROLLOUT.md): canary_rollout
# in both polarities — the bad policy must roll back inside the bake
# window on a canary SLO breach, the healthy one must promote — with
# the streaming-telemetry captures validated and left under
# $(TELEMETRY_SMOKE_DIR) for CI artifact upload.
TELEMETRY_SMOKE_DIR := /tmp/repro-telemetry-smoke

smoke-telemetry:
	$(PYTHON) scripts/smoke_telemetry.py --out $(TELEMETRY_SMOKE_DIR)

# Closed-loop tuner smoke (docs/TUNING.md): the three tune_* chaos
# scenarios on the sim backend — shed/regrow polarity, loss headroom,
# step tracking, and the no-oscillation invariant — in a few seconds.
smoke-tune:
	$(PYTHON) scripts/smoke_tune.py --bundle $(TUNE_BUNDLE_DIR)

# The wall-clock perf ledger as a trajectory (benchmarks/perf/README.md):
# bench-record runs every BENCHMARK.json workload once (~1.5 min) and
# appends one entry to BENCH_history.jsonl; bench-diff compares the last
# two entries against the declared bounds and fails on a regression.
bench-record: SEED ?= 1
bench-record:
	$(PYTHON) scripts/bench_history.py record --seed $(SEED)

bench-diff:
	$(PYTHON) scripts/bench_history.py diff

# Frame census of relay > session > mux > tcp_block on loopback sockets:
# relay frames per MiB, the share of them <= 64 B, frames by kind per
# layer, mux.backpressure_waits per MiB, event-loop handle runs and
# futures created per MiB, then Python calls per rpc round trip and per
# block.  A printed diagnostic with six gates, each ≈ 15 % above what the
# tree reaches (20.5 relay frames, 1.75 stalls, 55.1 handle runs and 30.1
# futures per MiB; 229 calls into src/repro per round trip and 145.6 per
# block — the event loop's calls, which differ between Python versions,
# are printed but not gated); the deterministic budgets are
# tests/core/test_frame_census.py and tests/core/test_routed_call_budget.py.
frame-census:
	$(PYTHON) scripts/frame_census.py --mib 64 --max-frames 24 --max-stalls 2 --max-handles 63 --max-futures 35 --max-calls 263 --max-block-calls 167

# Is the simulator's behaviour here identical to BASE's?  Runs the twelve
# reference chaos cells (nine packet-tier, three flow-tier) at both trees
# and compares report bytes and sorted trace JSONL (docs/TESTING.md).
# STRIP_LABEL=backend drops that key from labels and attrs on both sides,
# for a change whose one delta is the label.
sim-identical: BASE ?= HEAD^
sim-identical:
	$(PYTHON) scripts/sim_identical.py $(BASE) $(if $(STRIP_LABEL),--strip-label $(STRIP_LABEL))

# Are the live bindings still only subclasses that name their runtime?
# Lists every method a livenet/ subclass redefines over its shared binding
# and fails on one without a reason in scripts/twins_allow.json.
twins:
	$(PYTHON) scripts/twins.py

# Skip tests that bind real loopback sockets (useful in sandboxes).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not livenet"

# The demo fault plan from the chaos harness: relay crash mid-transfer
# plus two link flaps.  Recovery is visible in the exported trace.
CHAOS_PLAN := relay_crash@2:for=8;link_down@12:site=A,for=0.4;link_down@13.5:site=B,for=0.4
CHAOS_PLAN_LOSS := relay_crash@2:for=8;loss_burst@4:site=B,loss=0.3,for=5

chaos:
	$(PYTHON) -m repro.chaos --seed 1 --plan "$(CHAOS_PLAN)" \
		--trace /tmp/repro-chaos.jsonl
	$(PYTHON) -m repro.obs.report /tmp/repro-chaos.jsonl

# Every sweep target below takes SEEDS=<range>; the default is the PR-gate
# width, and CI's nightly widens it (`make chaos-mux SEEDS=1-20`) instead
# of keeping its own copy of the plan strings.
chaos-sweep: SEEDS ?= 1-20
chaos-sweep:
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --plan "$(CHAOS_PLAN)"
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --plan "$(CHAOS_PLAN_LOSS)"

# Live-socket chaos tier (docs/TESTING.md §4): the marked suite runs
# real loopback transfers through the fault-injecting proxy, then the
# golden-trace gate diffs assembled-trace structure against goldens/.
live-chaos:
	$(PYTHON) -m pytest -q -m live_chaos
	$(PYTHON) -m repro.chaos.live validate

# Cross-backend diff gate (docs/TESTING.md): every scenario that runs on
# both backends, seed 7, no faults, with and without sessions; the sim and
# live trace signatures must agree (all but the untraced count).
diff-gate:
	$(PYTHON) -m pytest -q tests/chaos/test_cross_backend.py

golden-gate:
	$(PYTHON) -m repro.chaos.live validate

golden-capture:
	$(PYTHON) -m repro.chaos.live capture

golden-soak:
	$(PYTHON) -m repro.chaos.live soak --seeds 1,2,3

# Mux chaos seed sweep: fan-in fairness/credit-conservation plus the
# bulk-vs-interactive starvation bound (docs/MUX.md).
chaos-mux: SEEDS ?= 1-5
chaos-mux:
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --scenario mux_fanin
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --scenario mux_starvation

# Mesh failover smoke (docs/MESH.md): kill the carrying relay (and a
# second one) mid-transfer over the 3-relay mesh on BOTH backends.
# Sessions must resume on a surviving relay with zero byte loss inside
# the gossip detection bound; invariant failures dump postmortem
# bundles under $(MESH_BUNDLE_DIR) for CI artifact upload.
MESH_BUNDLE_DIR := /tmp/repro-mesh-bundles
MESH_PLAN_SIM := relay_kill@2:relay=r1;relay_kill@2.2:relay=r2
MESH_PLAN_LIVE := relay_kill@0.45:relay=r1;relay_kill@0.6:relay=r2

chaos-mesh: SEEDS ?= 1-3
chaos-mesh:
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario mesh_failover --plan "$(MESH_PLAN_SIM)" \
		--bundle $(MESH_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario relay_chain \
		--plan "relay_partition@2:relay=r2,peers=r3,for=2" \
		--bundle $(MESH_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario nat_to_nat --plan "$(MESH_PLAN_SIM)" \
		--bundle $(MESH_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --backend live --sessions --seeds $(SEEDS) \
		--scenario mesh_failover --plan "$(MESH_PLAN_LIVE)" \
		--bundle $(MESH_BUNDLE_DIR)

# Closed-loop tuner sweep (docs/TUNING.md): 3-seed sim sweep over the
# three convergence scenarios, then the live-only tune_window — a latency fault
# through the chaos proxy that the tuner must answer with a mux
# CREDIT-window renegotiation on the wire.  Invariant failures dump
# postmortem bundles under $(TUNE_BUNDLE_DIR) for CI artifact upload.
TUNE_BUNDLE_DIR := /tmp/repro-tune-bundles
TUNE_PLAN_DEGRADE := wan_degrade@5:site=S,scale=5,for=5
TUNE_PLAN_LOSS := wan_degrade@5:site=S,scale=1,loss=0.01,for=5
TUNE_PLAN_STEP := wan_degrade@0.5:site=S,scale=5,for=8
TUNE_PLAN_LIVE := latency@1.2:site=HUB,delay=0.08,for=2.5

chaos-tune: SEEDS ?= 1-3
chaos-tune:
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --scenario tune_degrade \
		--plan "$(TUNE_PLAN_DEGRADE)" --bundle $(TUNE_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --scenario tune_loss_burst \
		--plan "$(TUNE_PLAN_LOSS)" --bundle $(TUNE_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --seeds $(SEEDS) --scenario tune_bandwidth_step \
		--plan "$(TUNE_PLAN_STEP)" --bundle $(TUNE_BUNDLE_DIR)
	$(PYTHON) -m repro.chaos --backend live --seeds $(SEEDS) \
		--scenario tune_window --plan "$(TUNE_PLAN_LIVE)" \
		--bundle $(TUNE_BUNDLE_DIR)

# Mid-stream fault matrix for the session layer (docs/SESSIONS.md):
# each fault kills an in-flight stream; --sessions must carry it.
chaos-resume: SEEDS ?= 1-5
chaos-resume:
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario wan_transfer --plan "conntrack_flush@3:site=B"
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario wan_transfer --plan "nat_expiry@3:site=B"
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario wan_transfer_routed --plan "relay_crash@2:for=4"
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario wan_transfer_routed --plan "peer_drop@2:node=bob"
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario socks_transfer --plan "proxy_restart@2:site=B,for=2"
	$(PYTHON) -m repro.chaos --sessions --seeds $(SEEDS) \
		--scenario ipl_fanin \
		--plan "conntrack_flush@2.5:site=HUB;link_down@3.5:site=W2,for=0.5"
