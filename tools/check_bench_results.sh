#!/bin/sh
# Fails when bench_results/ holds a file that no recipe writes: every entry
# must be <name>.csv for a name that `copyattack recipe` lists.
# Usage: check_bench_results.sh <copyattack binary> <bench_results dir>
names=$("$1" recipe | sed -n 's/^  \([A-Za-z0-9_]*\): .*/\1/p')
[ -n "$names" ] || { echo "'$1 recipe' listed no recipes"; exit 1; }
status=0
for path in "$2"/*; do
  [ -e "$path" ] || continue
  file=$(basename "$path")
  stem=${file%.csv}
  if [ "$stem.csv" != "$file" ] ||
     ! printf '%s\n' $names | grep -qx "$stem"; then
    echo "orphan: $path (no recipe writes it)"
    status=1
  fi
done
exit $status
