#!/bin/sh
# Usage: churn_digests.sh XROUTE DIGESTS SEED...
# Runs the sim-churn benchmark job (perfbench/run.py's "spec") for each
# scenario seed and compares its printed ledger digest with the seed's
# pin in DIGESTS (perfbench/digests.json). Exits 1 on the first drift.
xroute=$1
digests=$2
shift 2
for s in "$@"; do
  want=$(sed -n "s/^ *\"$s\": *\"\([0-9a-f]*\)\".*/\1/p" "$digests")
  got=$("$xroute" scenario --spec "kind=churn,clients=50000,levels=5,docs=6,batch=4096,seed=$s" |
    sed -n 's/^ledger digest: *//p')
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "sim-churn seed $s: ledger digest '$got', pinned '$want'"
    exit 1
  fi
done
