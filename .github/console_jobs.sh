#!/usr/bin/env bash
# Run the installed pwl-rotor console script on thirteen small jobs and check
# their answers.  Usage: console_jobs.sh [DIR]; the job files and outputs go
# to DIR (default: a new temporary directory).  CI runs it once with numpy
# installed and once without it: these subcommands must not need numpy.
set -euo pipefail
dir="${1:-$(mktemp -d)}"
mkdir -p "$dir"

pwl-rotor --help > /dev/null

# h^-1 o R_{1/3} o h for h through (1/4, 1/8) and (1/2, 3/4): two break orbits
cat > "$dir/conjugacy.json" <<'JOB'
{"family": {"family": "custom", "params": {"mu": [0, 1],
  "breaks": [["1/4", "11/30", "1/2", "7/12"], ["1/4", "11/30", "1/2", "7/12"]],
  "values": [["23/60", "1/2", "7/6", "5/4"], ["23/60", "1/2", "7/6", "5/4"]]}},
 "mu": 0}
JOB
pwl-rotor conjugacy --config "$dir/conjugacy.json" > "$dir/conjugacy.out"
cat "$dir/conjugacy.out"
# the densities are the slopes canonicalize keeps from the exact Phi
python3 - "$dir/conjugacy.out" <<'CHECK'
import json, sys
out = json.load(open(sys.argv[1]))
assert out["verdict"]["verdict"] == "conjugate" and out["verdict"]["q"] == 3, out["verdict"]
assert out["h"]["values"] == ["-11/180", "0", "49/180", "1/3", "109/180", "2/3"], out["h"]
densities = out["invariant_density"]["densities"]
assert densities == ["11/15", "7/3", "11/3", "7/3", "11/15", "7/15"], densities
CHECK

# the same map marked at 3/10, 31/100 and 8/25, with its value at 31/100
# moved up by 1/1000: rho stays 1/3, and the orbit of that break misses
# itself by 1/1000 after three steps
cat > "$dir/conjugacy_not.json" <<'JOB'
{"family": {"family": "custom", "params": {"mu": [0, 1],
  "breaks": [["1/4", "3/10", "31/100", "8/25", "11/30", "1/2", "7/12"],
             ["1/4", "3/10", "31/100", "8/25", "11/30", "1/2", "7/12"]],
  "values": [["23/60", "13/30", "1333/3000", "34/75", "1/2", "7/6", "5/4"],
             ["23/60", "13/30", "1333/3000", "34/75", "1/2", "7/6", "5/4"]]}},
 "mu": 0}
JOB
pwl-rotor conjugacy --config "$dir/conjugacy_not.json" > "$dir/conjugacy_not.out"
cat "$dir/conjugacy_not.out"
python3 - "$dir/conjugacy_not.out" <<'CHECK'
import json, sys
v = json.load(open(sys.argv[1]))["verdict"]
assert v["verdict"] == "not_conjugate" and v["q"] == 3, v
assert v["evidence"]["break_index"] == 2 and v["evidence"]["drift"] == "1/1000", v["evidence"]
CHECK

# float refraction(2, beta_c) at mu = 0: one break orbit of period 5
cat > "$dir/conjugacy_float.json" <<'JOB'
{"family": {"family": "refraction", "params": {"alpha": 2.0, "beta": 1.2360679774997898}},
 "mu": 0.0}
JOB
pwl-rotor conjugacy --config "$dir/conjugacy_float.json" > "$dir/conjugacy_float.out"
cat "$dir/conjugacy_float.out"
python3 - "$dir/conjugacy_float.out" <<'CHECK'
import json, sys
v = json.load(open(sys.argv[1]))["verdict"]
assert v["verdict"] == "conjugate" and v["q"] == 5, v
assert len(v["partition"]["orbits"]) == 1, v["partition"]["orbits"]
CHECK

# float h^-1 o R_{2/3} o h with two break orbits 1e-10 apart, inside the
# orbit band: the walk of a break orbit misses itself by 2.4e-7, within the
# walk's rounding bound, so the verdict is undecided (and the exit code 0)
cat > "$dir/conjugacy_band.json" <<'JOB'
{"family": {"family": "custom", "params": {"mu": [0, 1],
  "breaks": [[0.041666666666666664, 0.2361111111111111, 0.3333333333333333,
              0.3333333334333333, 0.3796296297185185, 0.75, 0.7986111111111112],
             [0.041666666666666664, 0.2361111111111111, 0.3333333333333333,
              0.3333333334333333, 0.3796296297185185, 0.75, 0.7986111111111112]],
  "values": [[0.5648148148592592, 0.75, 0.8472222222222222, 1.2847222222222223,
              1.3333333333333333, 1.3333333334222222, 1.3333333334333333],
             [0.5648148148592592, 0.75, 0.8472222222222222, 1.2847222222222223,
              1.3333333333333333, 1.3333333334222222, 1.3333333334333333]]}},
 "mu": 0}
JOB
pwl-rotor conjugacy --config "$dir/conjugacy_band.json" > "$dir/conjugacy_band.out"
cat "$dir/conjugacy_band.out"
grep -q '"verdict": "undecided"' "$dir/conjugacy_band.out"
grep -q 'within its rounding bound' "$dir/conjugacy_band.out"

# exact herman_offset(1/2): the 1/2 tongue pinches to a point at d = 0
cat > "$dir/pinch.json" <<'JOB'
{"family": {"family": "herman_offset", "params": {"lam": "1/2", "d": "0"}},
 "p": 1, "q": 2, "d_grid": ["-1/50", "0", "1/50"], "mu_bracket": ["-1/10", "1/10"]}
JOB
pwl-rotor pinch --config "$dir/pinch.json" > "$dir/pinch.csv"
cat "$dir/pinch.csv"
grep -qx '0.0,0.0,0.0' "$dir/pinch.csv"
# at d = 1/50 the lock is exactly [0, 1/100]: secant probes land on both edges
grep -qx '0.02,0.0,0.01' "$dir/pinch.csv"
pwl-rotor pinch --config "$dir/pinch.json" --format json > "$dir/pinch.out"
grep -q '"width_at_zero": "0"' "$dir/pinch.out"

# exact x + 1/2 + mu as a custom family: its segment slope gives R1 = 1
cat > "$dir/scaling.json" <<'JOB'
{"family": {"family": "custom", "params": {"mu": ["-1", "1"],
  "breaks": [["0"], ["0"]], "values": [["-1/2"], ["3/2"]]}},
 "mu_c": "0", "m_fit": 10000, "residual": false}
JOB
pwl-rotor scaling --config "$dir/scaling.json" > "$dir/scaling.out"
cat "$dir/scaling.out"
grep -q '"R1": "1"' "$dir/scaling.out"

# float herman_shifted(sqrt 2) at mu_c = 0, with its residual block: R1 is
# Herman's closed form (1 + lam)^2 / (4 lam), from one break orbit
cat > "$dir/scaling_float.json" <<'JOB'
{"family": {"family": "herman_shifted", "params": {"lam": 1.4142135623730951}},
 "mu_c": 0.0, "m_fit": 100000, "window": 0.05, "samples": 8}
JOB
pwl-rotor scaling --config "$dir/scaling_float.json" > "$dir/scaling_float.out"
cat "$dir/scaling_float.out"
python3 - "$dir/scaling_float.out" <<'CHECK'
import json, math, sys
out = json.load(open(sys.argv[1]))
lam = math.sqrt(2.0)
assert abs(out["scaling"]["R1"] - (1 + lam) ** 2 / (4 * lam)) <= 1e-12, out["scaling"]["R1"]
assert out["scaling"]["K"] == 1, out["scaling"]["K"]
assert out["residual"]["symmetry_c"] is not None, out["residual"]
CHECK

# exact coelho(1/3, 1/3) at mu = 0: rho = 1/2, and the integer mu prints as "0"
cat > "$dir/rho.json" <<'JOB'
{"family": {"family": "coelho", "params": {"a": "1/3", "b": "1/3"}}, "mu": 0}
JOB
pwl-rotor rho --config "$dir/rho.json" > "$dir/rho.out"
cat "$dir/rho.out"
grep -q '"mu": "0"' "$dir/rho.out"
grep -q '"q": 2' "$dir/rho.out"

# exact coelho(7/19, 11/23) at mu = 0: a deep search, 54 mediants to q_max = 1000
cat > "$dir/rho_deep.json" <<'JOB'
{"family": {"family": "coelho", "params": {"a": "7/19", "b": "11/23"}}, "mu": 0,
 "q_max": 1000, "m": 100}
JOB
pwl-rotor rho --config "$dir/rho_deep.json" > "$dir/rho_deep.out"
cat "$dir/rho_deep.out"
grep -q '"lo": "386/869"' "$dir/rho_deep.out"
grep -q '"hi": "195/439"' "$dir/rho_deep.out"

# exact herman_shifted(3/2): the 1/3 tongue is exactly [-6/35, -3/20]
cat > "$dir/modelock.json" <<'JOB'
{"family": {"family": "herman_shifted", "params": {"lam": "3/2"}},
 "p": 1, "q": 3, "bracket": ["-1/4", "0"]}
JOB
pwl-rotor modelock --config "$dir/modelock.json" > "$dir/modelock.out"
cat "$dir/modelock.out"
grep -q '"q": 3' "$dir/modelock.out"
grep -q '"lo": "-6/35"' "$dir/modelock.out"
grep -q '"hi": "-3/20"' "$dir/modelock.out"
# float map whose F - x changes sign on a piece of slope 3e8: the decided
# signs certify rho = 0/1, with no second check of the rounded root
cat > "$dir/rho_steep.json" <<'JOB'
{"family": {"family": "custom", "params": {"mu": [0, 1],
  "breaks": [[0.0, 0.3, 0.300000001], [0.0, 0.3, 0.300000001]],
  "values": [[-0.1, 0.2, 0.5], [-0.1, 0.2, 0.5]]}},
 "mu": 0}
JOB
pwl-rotor rho --config "$dir/rho_steep.json" > "$dir/rho_steep.out"
cat "$dir/rho_steep.out"
python3 - "$dir/rho_steep.out" <<'CHECK'
import json, sys
r = json.load(open(sys.argv[1]))["rotation"]
assert (r["kind"], r["p"], r["q"]) == ("exact", 0, 1), r
CHECK

# float herman_shifted(sqrt 2) sweep at m = 1000: 41 lanes run one at a
# time, so no numpy; the orbits run on F^4
cat > "$dir/sweep.json" <<'JOB'
{"family": {"family": "herman_shifted", "params": {"lam": 1.4142135623730951}},
 "mu_min": 0.0, "mu_max": 0.04, "points": 41, "m": 1000}
JOB
pwl-rotor sweep --config "$dir/sweep.json" --workers 1 -o "$dir/sweep.csv"
pwl-rotor sweep --config "$dir/sweep.json" --workers 2 -o "$dir/sweep_2.csv"
cat "$dir/sweep.csv"
cmp "$dir/sweep.csv" "$dir/sweep_2.csv"
python3 - "$dir/sweep.csv" <<'CHECK'
import csv, sys
rows = [[float(x) for x in row] for row in csv.reader(open(sys.argv[1])) if not row[0].startswith(("#", "mu"))]
assert len(rows) == 41, len(rows)
assert all(abs((hi - lo) * 1000 - 2) <= 2e-9 for _, lo, hi in rows), rows
assert all(a[1] <= b[1] for a, b in zip(rows, rows[1:])), "rho_lo decreases in mu"
assert rows[0][0] == 0.0 and rows[0][1] <= 0.5 <= rows[0][2], rows[0]
CHECK

# a family backend that is no tag is a bad config: exit 2, not a traceback
cat > "$dir/bad_backend.json" <<'JOB'
{"family": {"family": "herman_shifted", "params": {"lam": 1.5}, "backend": 5}, "mu": 0.01}
JOB
status=0
pwl-rotor rho --config "$dir/bad_backend.json" > "$dir/bad_backend.out" 2> "$dir/bad_backend.err" || status=$?
cat "$dir/bad_backend.err"
test "$status" -eq 2
grep -q '^error: unknown backend tag 5' "$dir/bad_backend.err"
echo "console jobs passed"
