GO ?= go

.PHONY: all build vet fmt test race bench tables verify examples cover clean

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

clean:
	rm -f bench_output.txt test_output.txt bfserved
