# bench2json.awk encodes `go test -bench` output as a JSON array: one
# object per Benchmark line carrying its name, iteration count and
# every reported metric (ns/op, B/op, allocs/op and custom metrics).
# Metric units map "/" to "_per_" so keys are plain identifiers
# ("ns/op" -> "ns_per_op"). Non-benchmark lines are ignored.
#
#   awk -f .github/scripts/bench2json.awk bench.txt > BENCH_x.json
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  if (!first) printf ",\n"
  first = 0
  printf "  {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", $1, $2
  sep = ""
  for (i = 3; i + 1 <= NF; i += 2) {
    metric = $(i+1)
    gsub(/\//, "_per_", metric)
    printf "%s\"%s\":%s", sep, metric, $i
    sep = ","
  }
  printf "}}"
}
END { print "\n]" }
