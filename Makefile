GO ?= go

.PHONY: all build vet fmt test race bench tables verify examples cover clean smoke crash-smoke cluster-smoke qos-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .
	@test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Regenerate every table/figure of the paper at full size.
tables:
	$(GO) run ./cmd/bfbench -table all | tee bench_full_output.txt

verify:
	$(GO) run ./cmd/bfverify -dataset arxiv-cond-mat -scale 10

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/algfamily
	$(GO) run ./examples/recommendation
	$(GO) run ./examples/authorship
	$(GO) run ./examples/streaming
	$(GO) run ./examples/derivation
	$(GO) run ./examples/anomaly

cover:
	$(GO) test -cover ./...

# Local mirror of the CI serve-smoke job: boot bfserved, drive mixed
# load through bfload, check /metrics, then SIGTERM and verify a clean
# drain.
smoke:
	$(GO) build -o bfserved ./cmd/bfserved
	$(GO) build -o bfload ./cmd/bfload
	./bfserved -addr 127.0.0.1:18080 -preload occupations@50 & \
	SERVER=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18080/healthz >/dev/null && break; \
		sleep 0.2; \
	done; \
	./bfload -addr 127.0.0.1:18080 -graph smoke -dataset github -scale 50 -n 1000 -c 8 -json - || { kill -9 $$SERVER; exit 1; }; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q bfserved_requests_total || { kill -9 $$SERVER; exit 1; }; \
	kill -TERM $$SERVER; \
	wait $$SERVER
	rm -f bfserved bfload

# Local mirror of the CI store-recovery crash script: kill -9 a durable
# bfserved mid-flight and prove the restart serves the same state.
crash-smoke:
	./scripts/crash_recovery_smoke.sh

# Local mirror of the CI cluster-smoke job: 2 shards + router,
# partitioned vs single-home count agreement, kill -9 one shard
# mid-run (pinned exact + degraded scatter), WAL-replay restart, zero wrong counts.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Local mirror of the CI qos-smoke job: two tenants at 4:1 weights under
# saturating load must split scheduler grants ~4:1, and a batch-lane
# flood must leave interactive p99 within 2x solo (writes BENCH_PR10.json).
qos-smoke:
	./scripts/qos_smoke.sh

clean:
	rm -f bench_output.txt test_output.txt bfserved bfload
