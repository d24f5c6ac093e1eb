# SenSocial reproduction — convenience targets.

GO ?= go

.PHONY: all ci build fmt vet lint no-stats lockgraph test race stress bench bench-smoke bench-e2e-smoke fuzz-smoke chaos-smoke durability-smoke metrics-smoke experiments examples loc clean

all: build vet lint test fuzz-smoke

# The CI gate (ci.sh runs exactly this): every recipe below is written once
# and composed here. `race` is the full test suite under the race detector.
ci: build fmt vet lint no-stats race fuzz-smoke bench-smoke bench-e2e-smoke chaos-smoke durability-smoke metrics-smoke
	@echo "CI OK"

build:
	$(GO) build ./...

# Fail when any Go file differs from gofmt's output, and name the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: gofmt -w these files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant analyzers: wallclock, globalrand, layering, droppederr,
# mutexhold, pkgdoc, goroutineleak, lockorder, chandiscipline, hotpath.
# Also enforced by internal/lint/selfcheck_test.go under `make test`.
lint:
	$(GO) run ./cmd/sensolint ./...

# Counts live once, in the obs registry (DESIGN.md §14): fail if a component
# grows a Stats() snapshot method beside it again.
no-stats:
	@if grep -rnE 'func \([^)]*\) Stats\(\)' internal cmd --include='*.go' | grep -v '_test\.go:'; then \
		echo "no-stats: read counts with obs.Registry.Sum, not a Stats() method"; exit 1; fi

# Print the cross-package mutex-acquisition DAG inferred by lockorder.
lockgraph:
	$(GO) run ./cmd/sensolint -lockgraph ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The deadlock and flake net for the fabric's send windows and the ingest
# wait: every test of the item codec, fabric, simulator, chaos, shard,
# broker and WAL packages, and the document store's allocation and
# durability tests, twenty times under the race detector, then each test's
# pass count (not part of ci). Fails if any run failed.
STRESS_PKGS = ./internal/core ./internal/netsim ./internal/sim ./internal/chaos ./internal/shard ./internal/wal ./internal/mqtt
STRESS_DOCSTORE = Allocs|Allocates|Retained|Durable|Reopen|Replay|Snapshot|Journal|Checkpoint
stress:
	@log=$$(mktemp); $(GO) test -race -count=20 -timeout 60m -v $(STRESS_PKGS) > $$log 2>&1; status=$$?; \
	$(GO) test -race -count=20 -timeout 60m -v -run '$(STRESS_DOCSTORE)' ./internal/docstore >> $$log 2>&1 || status=1; \
	awk '$$1 == "---" && ($$2 == "PASS:" || $$2 == "FAIL:") { runs[$$3]++; if ($$2 == "PASS:") passed[$$3]++ } \
		END { for (t in runs) printf "%4d/%-4d %s\n", passed[t], runs[t], t }' $$log | sort -k2; \
	if [ $$status -ne 0 ]; then grep -E '^(--- FAIL|FAIL|panic)' $$log | head -40; fi; \
	rm -f $$log; exit $$status

# One testing.B bench per paper table/figure + micro-benchmarks + ablations.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Smoke-run the ingest scaling, broker fan-out, document-store and netsim
# benches (one iteration each): catches compile rot and harness deadlocks without
# paying full benchmark time; the second line is the worker-side item path
# alone on a stream with a cross-user filter, the third one item's round
# trip through an ingest queue (box, worker, process). The next two are the
# pooled fleet's set-up path: populating 20 000 pooled devices and starting
# them (every slot connected), with the test that pins what those devices
# hold at rest, then building a three-shard ring. The last three are
# control-plane writes and the read they must not slow: a topic-trie match
# over 1 000 device filters, a cluster summary change applied at 1 000 and
# 10 000 filters, and a stream create on a server holding 1 000 and 10 000
# streams, beside the context registry's write of one item for a known and
# a first-seen user. The last line checkpoints and reopens a durable
# document store of 100 000 items, journals a QoS 1 delivery and its ack
# in the broker's session store and checkpoints one of 20 000 clients.
# The simulator and cluster layers at run
# time are measured end to end by `go run ./bench` (sim.*, cluster.* in
# bench/BASELINE.md).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkIngest|BenchmarkBrokerFanout|BenchmarkDocstoreIndexedQuery|BenchmarkDocstoreInsertItem|BenchmarkDocstoreGetItem|BenchmarkDocstoreInsertAction|BenchmarkDocstoreScan|BenchmarkNetsimThroughput' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkIngestConditioned' -benchtime 1x ./internal/core/server
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineEnqueueProcess' -benchtime 1x ./internal/core/server/ingest
	$(GO) test -run '^TestPoolRetainedBytesPerDevice$$' -bench '^BenchmarkPool(AddDevices|Start)$$' -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -bench '^Benchmark(NewRing|RingOwner)$$' -benchtime 1x ./internal/cluster
	$(GO) test -run '^$$' -bench '^BenchmarkFilterTrieMatch$$' -benchtime 1x ./internal/mqtt/topictrie
	$(GO) test -run '^$$' -bench '^BenchmarkSummaryChurn$$' -benchtime 1x ./internal/cluster
	$(GO) test -run '^$$' -bench '^Benchmark(StreamCreate|RegistryApplyItem)$$' -benchtime 1x ./internal/core/server
	$(GO) test -run '^$$' -bench '^Benchmark(Docstore(Checkpoint|Reopen)|SessionStore(Inflight|Checkpoint))$$' -benchtime 1x .

# The end-to-end benchmark's untraced pass of every workload at a tenth of
# the work (about 18 s): exits non-zero if any of its exact-count
# correctness checks fails, so they run on every change and not only when
# the benchmark driver does.
bench-e2e-smoke:
	$(GO) run ./bench -short

# Short coverage-guided runs of the item and trigger codec fuzzers (each
# differential against encoding/json), the MQTT wire codec fuzzer, the
# topic-trie match cross-check, the netsim lifecycle fuzzer, the WAL replay
# fuzzer, the document-record codec fuzzer and the journal replay fuzzers
# of the document store and the broker's session store: catches decode panics, a codec fast path that
# drifts from encoding/json, frames that do not read back as written,
# trie/matcher divergence, fabric deadlocks under fault/close
# interleavings, records that do not read back as written and journal or
# snapshot bytes that crash a reopen, without a dedicated fuzz farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeItem$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrigger$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPacketRoundTrip$$' -fuzztime 10s ./internal/mqtt
	$(GO) test -run '^$$' -fuzz '^FuzzTopicMatchConsistency$$' -fuzztime 10s ./internal/mqtt
	$(GO) test -run '^$$' -fuzz '^FuzzFabricLifecycle$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 10s ./internal/docstore
	$(GO) test -run '^$$' -fuzz '^FuzzStringRoundTrip$$' -fuzztime 10s ./internal/docstore
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s ./internal/docstore
	$(GO) test -run '^$$' -fuzz '^FuzzSessionReplay$$' -fuzztime 10s ./internal/mqtt

# Deterministic chaos runs under fault schedules (DESIGN.md §8, §15): the
# smoke schedule exercises every fault verb over a 128-device fleet, the
# dtn schedule keeps the fleet dark for hours and checks batch-upload on
# reconnect. Exits nonzero if any of the four invariants (ordering, no
# QoS1 duplicates, snapshot freshness, conservation) is violated. The
# deeper scenario matrix lives in `go test ./internal/chaos`.
chaos-smoke:
	$(GO) run ./cmd/sensocial-sim -chaos smoke -devices 128
	$(GO) run ./cmd/sensocial-sim -chaos dtn -devices 64
	$(GO) run ./cmd/sensocial-sim -chaos crash -devices 64
	$(GO) run ./cmd/sensocial-sim -chaos cluster -devices 96

# Durability smoke (docs/DURABILITY.md): write → kill → reopen → verify.
# Covers un-acked QoS 1 redelivery with DUP across a broker crash, retained
# messages and subscriptions recovered through Shard.RestartBroker, the
# registry (documents, indexes, context write-memory) recovered across
# deployments, and torn-tail truncation in the log itself.
durability-smoke:
	$(GO) test -race -count=1 \
		-run 'TestBrokerCrashRedeliversUnackedQoS1|TestBrokerRestartRecoversRetainedAndSubscriptions|TestRestartBrokerRecoversDurableSessions|TestDurableRegistryRecoversAcrossRuns|TestDurableTraceByteIdentical|TornTail' \
		./internal/wal ./internal/mqtt ./internal/sim

# Boot a simulated deployment, scrape GET /metrics, and fail unless the
# exported family set matches docs/OBSERVABILITY.md exactly.
metrics-smoke:
	$(GO) run ./cmd/obscheck

# Regenerate every table and figure with paper-vs-measured reports.
experiments:
	$(GO) run ./cmd/benchtables

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensormap
	$(GO) run ./examples/conweb
	$(GO) run ./examples/geonotify
	$(GO) run ./examples/emotionstudy

# Count middleware source the way the paper's Table 1 does.
loc:
	$(GO) run ./cmd/cloc internal/core internal/sensing internal/classify internal/config

clean:
	$(GO) clean ./...
