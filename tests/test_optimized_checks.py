"""Verification checks are explicit raises, so ``python -O`` keeps them."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
if not sys.flags.optimize:
    sys.exit("not running under -O")

from wlmpnn import linalg, synthesis
from wlmpnn.cases import builtin_graph
from wlmpnn.compare import CompareVerdict
from wlmpnn.linalg import as_matrix, identity, right_inverse, solve
from wlmpnn.surd import ZERO, ExactScalar

m = as_matrix([[1, 2, 0], [3, 4, 1]])
if linalg.mat_mul(m, right_inverse(m)) != identity(2):
    sys.exit("right_inverse returned a wrong inverse")
cert = synthesis.synthesize_dgnn6(builtin_graph("fig1"), 1, "relu")
if not (cert.m_p < cert.p < 1):
    sys.exit("dgnn6 trade-off parameter out of range")

# a product that is not the identity must still fail the re-verification
real_mat_mul = linalg.mat_mul
linalg.mat_mul = lambda a, b: ((ZERO,) * len(b[0]),) * len(a)
try:
    right_inverse(m)
except ArithmeticError:
    pass
else:
    sys.exit("right_inverse accepted a wrong product")
try:
    solve(m, as_matrix([[1], [2]]))
except ArithmeticError:
    pass
else:
    sys.exit("solve accepted a wrong product")
linalg.mat_mul = real_mat_mul
if linalg.mat_mul(m, solve(m, as_matrix([[1], [2]]))) != as_matrix([[1], [2]]):
    sys.exit("solve returned a wrong solution")

# an m_p >= 1 puts p = (m_p + 1)/2 outside (m_p, 1)
synthesis.compute_mp = lambda g, g_fn: ExactScalar(2)
try:
    synthesis.synthesize_dgnn6(builtin_graph("fig1"), 1, "relu")
except ArithmeticError:
    pass
else:
    sys.exit("synthesize_dgnn6 accepted p outside (m_p, 1)")

# a round that needs a repair has no plain gnn-minus layer
real_wl_partitions = synthesis.wl_partitions

def coarser(g, rounds):
    parts = real_wl_partitions(g, rounds)
    parts[2] = parts[1]
    return parts

synthesis.wl_partitions = coarser
try:
    synthesis.synthesize_gnn_minus(builtin_graph("fig1"), 3, "relu")
except synthesis.SynthesisError as exc:
    if exc.dump.get("round") != 2:
        sys.exit("gnn-minus check did not name the round")
else:
    sys.exit("synthesize_gnn_minus accepted a repaired round")
synthesis.wl_partitions = real_wl_partitions

try:
    CompareVerdict(holds=True, first_violation=(1, 2, 3))
except ValueError:
    pass
else:
    sys.exit("CompareVerdict accepted a holding verdict with a violation")
# the spec reader refuses unknown fields and the wrong weight name by raising
from wlmpnn.cases import named_spec
from wlmpnn.mpnn import SpecValidationError, spec_from_json, spec_to_json

for field, value in (("bais", ["-1", "-1", "-1"]), ("W2", [["1", "0", "0"]] * 3)):
    spec = spec_to_json(named_spec("dgnn6", 3, rounds=1))
    spec["layers"][0][field] = value
    try:
        spec_from_json(spec)
    except SpecValidationError:
        pass
    else:
        sys.exit(f"spec_from_json accepted a dgnn6 layer with the field {field}")
print("checks held")
"""


def test_checks_survive_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "checks held"
