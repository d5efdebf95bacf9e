# Tier-1 verification and bench smoke for the Visualinux reproduction.
#
#   make ci            vet + build + race tests + bench smoke + bench-regress
#   make test          fast test sweep (no race detector)
#   make bench         the full benchmark suite, 1 iteration each
#   make table4        regenerate the paper's Table 4 (+ cache before/after + JSON)
#   make bench-regress re-run perfbench, which writes every bench report and
#                      fails if one breaks its bounds (the constants block
#                      in internal/perf/check.go), then compare BENCH_1/3/4
#                      per figure against the committed baselines with
#                      cmd/benchguard (>25% and >50 ms slower fails)
#   make table6        regenerate the compiled-vs-interpreted CPU report
#                      (BENCH_6.json)
#   make table7        regenerate the stream fan-out push-latency report
#                      (BENCH_7.json)
#   make table8        regenerate the multi-tenant session-fabric report
#                      (BENCH_8.json)
#   make table9        regenerate the fleet-memory CoW report (BENCH_9.json)
#   make table10       regenerate the fleet-query fan-out report (BENCH_10.json)
#   make fuzz-smoke    short fuzz passes (panic hunts over ViewQL's
#                      Engine.Apply and the C-expression parser expr.Parse;
#                      the committed corpus seeds always run)
#   make race-link     race-detector pass over the read pipeline packages
#                      (gdbrsp client/server, target cache, memory journal,
#                      interpreter memo, server, core workers, stream broker,
#                      coredump loader, viewql engine)

GO ?= go

.PHONY: ci test race vet build bench bench-smoke bench-regress race-link fuzz-smoke table4 table4-rsp table4-steady table6 table7 table8 table9 table10

ci: vet build race race-link fuzz-smoke bench-smoke bench-regress

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-link:
	$(GO) test -race ./internal/gdbrsp ./internal/target ./internal/mem ./internal/viewcl ./internal/server ./internal/obs ./internal/core ./internal/vchat ./internal/stream ./internal/coredump ./internal/viewql

fuzz-smoke:
	$(GO) test -fuzz=FuzzApply -fuzztime=5s -run='^FuzzApply$$' ./internal/viewql
	$(GO) test -fuzz=FuzzParse -fuzztime=5s -run='^FuzzParse$$' ./internal/expr

bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkTable2Extract -benchtime=1x .

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

bench-regress:
	$(GO) run ./cmd/perfbench -json BENCH_2.json -rspjson BENCH_3_CUR.json -steadyjson BENCH_4_CUR.json -cpujson BENCH_6_CUR.json -streamjson BENCH_7_CUR.json -tenantjson BENCH_8_CUR.json -memjson BENCH_9_CUR.json -fleetjson BENCH_10_CUR.json > /dev/null
	$(GO) run ./cmd/benchguard BENCH_1.json BENCH_2.json
	$(GO) run ./cmd/benchguard BENCH_3.json BENCH_3_CUR.json
	$(GO) run ./cmd/benchguard BENCH_4.json BENCH_4_CUR.json

table4:
	$(GO) run ./cmd/perfbench -json BENCH_1.json

table4-rsp:
	$(GO) run ./cmd/perfbench -rspjson BENCH_3.json

table4-steady:
	$(GO) run ./cmd/perfbench -steadyjson BENCH_4.json

table6:
	$(GO) run ./cmd/perfbench -cpujson BENCH_6.json

table7:
	$(GO) run ./cmd/perfbench -streamjson BENCH_7.json

table8:
	$(GO) run ./cmd/perfbench -tenantjson BENCH_8.json

table9:
	$(GO) run ./cmd/perfbench -memjson BENCH_9.json

table10:
	$(GO) run ./cmd/perfbench -fleetjson BENCH_10.json
