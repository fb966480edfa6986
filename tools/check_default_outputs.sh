#!/usr/bin/env bash
# Regenerates the default output of every carsfisher command, plus the
# direct-imaging simulate campaigns of both families, the SPADE and
# direct-imaging campaigns searched from s = 0 (search_lo=0, the only input
# that steps the secant in u = s^2), and two sweeps that drive the DI
# quadrature deep (figure2 at tol=1e-11, figure3 out to the dark vortex
# tail at s_max=8), from two source trees and compares them byte for
# byte.  Fails if any output differs while both trees carry the
# same cli._SCHEMA_VERSION: an output may change only with a schema bump.
# On a bump it prints, for each output, whether its data moved: all but
# the provenance, which is a CSV's '#' lines and a JSON document's
# schema_version, tool_version and config.
#
# usage: tools/check_default_outputs.sh <base-src> <head-src>
#   e.g. tools/check_default_outputs.sh /tmp/base/src src
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <base-src> <head-src>" >&2
    exit 2
fi
for var in $(compgen -e | grep '^CARSFISHER_' || true); do unset "$var"; done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
printf 'measurement=di\n' > "$work/di.cfg"
printf 'search_lo=0\n' > "$work/spade0.cfg"
printf 'measurement=di\nsearch_lo=0\n' > "$work/di0.cfg"
printf 'measurement=di\nfamily=vortex\n' > "$work/di_vortex.cfg"
printf 's_max=8\n' > "$work/tail.cfg"

# the schema version of the carsfisher package under source tree $1
schema() {
    (cd "$work" && PYTHONPATH="$1" python3 -c '
import sys
import carsfisher, carsfisher.cli as cli
if not carsfisher.__file__.startswith(sys.argv[1]):
    sys.exit(f"carsfisher imported from {carsfisher.__file__}, not {sys.argv[1]}")
print(cli._SCHEMA_VERSION)' "$1")
}

# writes the default outputs of source tree $1 into directory $2
outputs() {
    mkdir -p "$2"
    run() { (cd "$work" && PYTHONPATH="$1" python3 -m carsfisher.cli "${@:2}" > /dev/null); }
    run "$1" figure2 --out "$2/figure2.csv"
    run "$1" figure2 --tol 1e-11 --out "$2/figure2_tol_1e-11.csv"
    run "$1" figure3 --out "$2/figure3.csv"
    run "$1" figure3 --config "$work/tail.cfg" --out "$2/figure3_s_max_8.csv"
    run "$1" convergence --out "$2/convergence.csv"
    run "$1" adjudicate --out "$2/adjudication.json"
    run "$1" simulate --out "$2/simulation_spade.json"
    run "$1" simulate --config "$work/di.cfg" --out "$2/simulation_di.json"
    run "$1" simulate --config "$work/di_vortex.cfg" --out "$2/simulation_di_vortex.json"
    run "$1" simulate --config "$work/spade0.cfg" --out "$2/simulation_spade_from_0.json"
    run "$1" simulate --config "$work/di0.cfg" --out "$2/simulation_di_from_0.json"
    run "$1" spectral-dump --out "$2/spectral.csv"
    run "$1" optimize-waist --out "$2/waist.csv"
}

# prints "<output>: data identical" or "<output>: data moved" for each
# output in directory $1 against its namesake in directory $2
data_moved() {
    python3 - "$1" "$2" <<'PY'
import json, os, sys

def data(path):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not path.endswith(".json"):
        return [line for line in text.split("\r\n") if not line.startswith("#")]
    doc = json.loads(text)
    for key in ("schema_version", "tool_version", "config"):
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True)

for name in sorted(os.listdir(sys.argv[1])):
    same = data(os.path.join(sys.argv[1], name)) == data(os.path.join(sys.argv[2], name))
    print(f"{name}: data {'identical' if same else 'moved'}")
PY
}

base=$(cd "$1" && pwd) head=$(cd "$2" && pwd)
base_schema=$(schema "$base") head_schema=$(schema "$head")
outputs "$base" "$work/base"
outputs "$head" "$work/head"
if diff -rq "$work/base" "$work/head"; then
    echo "default outputs byte-identical (schema $head_schema)"
elif [ "$base_schema" = "$head_schema" ]; then
    echo "default outputs differ while the schema stays $head_schema" >&2
    exit 1
else
    echo "default outputs differ with the schema bump $base_schema -> $head_schema"
    data_moved "$work/base" "$work/head"
fi
