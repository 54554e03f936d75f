.PHONY: all build test fmt-check metrics-smoke lint static-check examples ci clean

all: build

build:
	dune build @all

# The whole dune test suite, including the perfbench smoke rule (every
# benchmark workload at a tiny size, its correctness gate and a
# self-compare).
test:
	dune runtest

# Formatting gate.  Skipped (with a notice) when ocamlformat is not
# installed, so ci still works in minimal containers.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

# Smoke-test the observability surface: run a small validation scenario
# with --metrics/--trace and check the outputs are well-formed.  The
# validate subcommand itself exits non-zero on any invariant violation.
metrics-smoke:
	dune exec bin/mifo_sim.exe -- validate --ases 80 --flows 8 \
		--metrics _build/metrics-smoke.json --trace _build/trace-smoke.jsonl
	@if command -v python3 >/dev/null 2>&1; then \
		python3 -m json.tool _build/metrics-smoke.json >/dev/null && \
		python3 -c 'import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]' \
			_build/trace-smoke.jsonl && \
		echo "metrics-smoke: JSON outputs parse"; \
	else \
		echo "metrics-smoke: python3 not installed, skipping JSON parse check"; \
	fi

# Determinism / domain-safety lint over the sources.
lint:
	dune exec bin/mifo_lint.exe

# Static data-plane verifier gate: the default configuration must verify
# clean — under the full property suite (loops, delivery, stretch,
# resilience), both unbounded and with the k=2 bounded automaton, and at
# the paper's 44,340 ASes, whose packet network has hubs of thousands of
# ports (about 2 s) — and
# the Tag-Check ablations must fail WITH a concrete loop counterexample
# (exit 1 + a forwarding-loop violation in the JSON).  The k2 gadget leg
# pins the ranked-set semantics: its ablated automaton is loop-free when
# only the first alternative is admissible (-k 1) and must loop the
# moment the second ranked slot opens (-k 2).  The black-hole gadget leg
# must fail the delivery check (and only it) under a failed link, with a
# counterexample the checker replays stranded through the dynamic
# walker; the stretch gadget leg must fail the stretch check (and only
# it) at --stretch-bound 1.  Both gadgets verify clean when healthy.
static-check:
	dune exec bin/mifo_sim.exe -- check --ases 150 --seed 42 \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --ases 44340 --dests 16 --hosts 8 >/dev/null
	dune exec bin/mifo_sim.exe -- check --ases 150 --seed 42 -k 2 \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --k2-gadget --no-tag-check -k 1 >/dev/null
	dune exec bin/mifo_sim.exe -- check --bh-gadget \
		--props loops,delivery,stretch,resilience >/dev/null
	dune exec bin/mifo_sim.exe -- check --stretch-gadget \
		--props loops,delivery,stretch,resilience >/dev/null
	@out=$$(dune exec bin/mifo_sim.exe -- check --bh-gadget --props delivery \
		--fail-link 2:0 2>&1); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: black-hole gadget unexpectedly verified clean"; exit 1; \
	fi; \
	case "$$out" in \
	*black-hole*) ;; \
	*) echo "static-check: black-hole gadget failed without a black-hole violation"; exit 1;; \
	esac; \
	case "$$out" in \
	*"replayed "*) echo "static-check: black-hole gadget fails and replays stranded";; \
	*) echo "static-check: black-hole counterexample did not replay"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --stretch-gadget --props stretch \
		--stretch-bound 1 2>&1); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: stretch gadget unexpectedly verified clean at bound 1"; exit 1; \
	fi; \
	case "$$out" in \
	*stretch*) ;; \
	*) echo "static-check: stretch gadget failed without a stretch violation"; exit 1;; \
	esac; \
	case "$$out" in \
	*"replayed "*) echo "static-check: stretch gadget fails and replays delivered";; \
	*) echo "static-check: stretch counterexample did not replay"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --gadget --no-tag-check 2>/dev/null); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: ablated gadget unexpectedly verified clean"; exit 1; \
	fi; \
	case "$$out" in \
	*forwarding-loop*) echo "static-check: ablation fails with a machine-checked loop";; \
	*) echo "static-check: ablation failed without a loop counterexample"; exit 1;; \
	esac
	@out=$$(dune exec bin/mifo_sim.exe -- check --k2-gadget --no-tag-check -k 2 2>/dev/null); \
	if [ $$? -eq 0 ]; then \
		echo "static-check: ablated k2 gadget unexpectedly verified clean at k=2"; exit 1; \
	fi; \
	case "$$out" in \
	*forwarding-loop*) echo "static-check: k=2 ablation fails with a machine-checked loop";; \
	*) echo "static-check: k=2 ablation failed without a loop counterexample"; exit 1;; \
	esac

# Run the five examples end to end (about 7 s); each exits non-zero on
# an uncaught error.  testbed_demo drives the Section V testbed through
# Packetsim's event loop.
EXAMPLES = quickstart content_provider testbed_demo loop_demo bgp_convergence

examples:
	@for e in $(EXAMPLES); do \
		echo "examples: $$e"; \
		dune exec examples/$$e.exe >/dev/null || exit 1; \
	done

# Tier-1 gate: everything compiles, the whole suite passes (perfbench
# smoke included), formatting is clean (when ocamlformat is available),
# the metrics surface works, the sources pass the determinism lint, the
# static verifier gate holds and the examples run.
ci: build test fmt-check metrics-smoke lint static-check examples

clean:
	dune clean
