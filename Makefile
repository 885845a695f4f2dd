# Tier-1 verification gate (see ROADMAP.md). `make ci` is what every PR
# must keep green; the individual targets exist for quick local runs.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: ci fmt vet lint lint-fix build test race profile fuzz crashsweep

ci:
	./scripts/ci.sh

# Static enforcement of determinism / virtual-time / hot-path invariants
# (walltime, seededrand, mapiter, hotalloc, probenil, sharedstate,
# attribwindow, detflow — see the analyzer catalog in DESIGN.md).
lint:
	go run ./cmd/flatflash-lint ./...

# Apply the suggested fixes (attribwindow Abandon insertion, mapiter
# sorted-walk rewrite), then verify the rewrites are gofmt-clean. A second
# run proposes nothing: every fix removes the diagnostic that suggested it.
lint-fix:
	go run ./cmd/flatflash-lint -fix ./...
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then echo "lint-fix left unformatted files:"; echo "$$out"; exit 1; fi

fmt:
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# CPU profile of the full-scale paper suite (flatflash-bench with no
# arguments): the 30 functions with the most flat samples. Everything it
# writes goes to a temporary directory that is removed afterwards.
profile:
	@dir=$$(mktemp -d); \
	go build -o "$$dir/flatflash-bench" ./cmd/flatflash-bench && \
	"$$dir/flatflash-bench" -cpuprofile "$$dir/cpu.pprof" > /dev/null && \
	go tool pprof -top -nodecount 30 "$$dir/flatflash-bench" "$$dir/cpu.pprof"; \
	status=$$?; rm -rf "$$dir"; exit $$status

fuzz:
	go test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/trace
	go test -fuzz=FuzzFaultPlan -fuzztime=10s -run=^$$ ./internal/fault
	go test -fuzz=FuzzArrivalGen -fuzztime=10s -run=^$$ ./internal/workload

crashsweep:
	go run ./cmd/flatflash-bench crashsweep -points 60
