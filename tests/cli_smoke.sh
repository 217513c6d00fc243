#!/bin/sh
# End-to-end smoke test of tglink_cli: generate -> stats/profile -> link ->
# evaluate -> analyze, checking exit codes and that artifacts materialize.
set -eu

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --out-dir "$DIR" --scale 0.03 --censuses 3 --seed 5 > /dev/null

test -s "$DIR/census_1851.csv"
test -s "$DIR/census_1861.csv"
test -s "$DIR/census_1871.csv"
test -s "$DIR/gold_1851_1861.csv"

"$CLI" stats --census "$DIR/census_1851.csv" --year 1851 | grep -q 1851
"$CLI" profile --census "$DIR/census_1851.csv" --year 1851 \
    --max-warnings 5 | grep -q "attributes:"

"$CLI" link --old "$DIR/census_1851.csv" --old-year 1851 \
    --new "$DIR/census_1861.csv" --new-year 1861 \
    --out "$DIR/map.csv" --report "$DIR/report.json" \
    --trace "$DIR/trace.json" > /dev/null
test -s "$DIR/map.csv"
grep -q "tglink.run_report/2" "$DIR/report.json"
grep -q "traceEvents" "$DIR/trace.json"
grep -q "linkage.link_census_pair" "$DIR/trace.json"

"$CLI" evaluate --old "$DIR/census_1851.csv" --old-year 1851 \
    --new "$DIR/census_1861.csv" --new-year 1861 \
    --mappings "$DIR/map.csv" --gold "$DIR/gold_1851_1861.csv" \
    --protocol verified | grep -q "record mapping"
"$CLI" evaluate --old "$DIR/census_1851.csv" --old-year 1851 \
    --new "$DIR/census_1861.csv" --new-year 1861 \
    --mappings "$DIR/map.csv" --gold "$DIR/gold_1851_1861.csv" \
    --protocol full | grep -q "record mapping"

"$CLI" analyze --dir "$DIR" --years 1851,1861,1871 \
    --dot "$DIR/evo.dot" --csv "$DIR/evo.csv" > /dev/null
test -s "$DIR/evo.dot"
grep -q "digraph evolution" "$DIR/evo.dot"
test -s "$DIR/evo.csv"

# Scenario registry: listing, validation, and scenario-driven generation.
"$CLI" scenarios | grep -q "rawtenstall"
"$CLI" scenarios --validate migration_shock | grep -q "ok"
mkdir "$DIR/shock"
"$CLI" generate --out-dir "$DIR/shock" --scenario migration_shock \
    --scale 0.03 > /dev/null
test -s "$DIR/shock/census_1851.csv"
# An unknown scenario and an out-of-range profile both fail loudly.
if "$CLI" generate --out-dir "$DIR/x" --scenario no_such_profile \
    > /dev/null 2>&1; then exit 1; fi
printf '{"schema": "tglink.scenario/1", "name": "bad",\n' > "$DIR/bad.json"
printf ' "population": {"emigration_prob": 2.0}}\n' >> "$DIR/bad.json"
if "$CLI" scenarios --validate "$DIR/bad.json" > /dev/null 2>&1; then
  exit 1
fi

# Unknown commands and missing options fail loudly.
if "$CLI" frobnicate > /dev/null 2>&1; then exit 1; fi
if "$CLI" link > /dev/null 2>&1; then exit 1; fi
# An option the command does not read (a removed one, a misspelt one) is
# refused with exit 2 and a message naming it, before any work is done.
for bad in "--blocking index" "--no-such-flag 3"; do
  status=0
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$CLI" link --old "$DIR/census_1851.csv" --old-year 1851 \
      --new "$DIR/census_1861.csv" --new-year 1861 \
      --out "$DIR/refused.csv" $bad > /dev/null 2> "$DIR/err.txt" || status=$?
  test "$status" -eq 2
  grep -q -- "${bad%% *}" "$DIR/err.txt"
  test ! -e "$DIR/refused.csv"
done
# Malformed numeric option values are rejected, not silently parsed as 0.
if "$CLI" stats --census "$DIR/census_1851.csv" --year banana \
    > /dev/null 2>&1; then exit 1; fi

echo "cli smoke OK"
