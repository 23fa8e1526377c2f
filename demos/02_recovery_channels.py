"""Build recovery channels and check what they restore.

1. the Petz recovery channel of a measurement channel,
2. its rotated variant, averaged over imaginary matrix powers against
   p(t) = (pi/2)/(cosh(pi t) + 1), in closed form,
3. the measurement-reversal channel: the rotated Petz recovery of the X
   measurement relative to the Z-pinched state, completed to a channel on
   the whole input space.

The reversal channel perfectly reverses an X measurement performed after a
Z measurement, whatever the input state.
"""

import numpy as np

from eurqsi import (
    CpMap,
    apply_map,
    eur_recovery_map,
    fidelity,
    measurement_channel,
    petz_map,
    rotated_petz_map,
    trace_distance,
    verify_cptp,
)
from eurqsi.linalg import op_norm
from eurqsi.states import (
    measure,
    pauli_pvm,
    pinch,
    random_multipartite_state,
    random_pvm,
    random_state,
    theta_state,
)

# --- Petz recovery of a qubit measurement ------------------------------
sigma = random_state(2, 2, seed=7).matrix
channel = measurement_channel(pauli_pvm("X"))
petz = petz_map(sigma, channel)
restored = petz.apply_matrix(channel.apply_matrix(sigma))
print("Petz recovery restores its reference state:")
print(f"  || R(N(sigma)) - sigma ||  = {np.abs(restored - sigma).max():.2e}")

rotated = rotated_petz_map(sigma, channel)
restored = rotated.apply_matrix(channel.apply_matrix(sigma))
print("so does the rotated variant:")
print(f"  || R(N(sigma)) - sigma ||  = {np.abs(restored - sigma).max():.2e}\n")

# --- the reversal channel and its rotated Petz core -------------------
rho = random_multipartite_state((2, 2), 4, seed=21, labels=("A", "B"))
x_pvm, z_pvm = random_pvm(2, 22), random_pvm(2, 23)

explicit = eur_recovery_map(rho, x_pvm, z_pvm)
# the X measurement on A alongside the identity on B: Kraus operators K (x) I
measure_x = CpMap.from_kraus([np.kron(k, np.eye(2)) for k in x_pvm.kraus],
                             in_dims=(2, 2), out_dims=(2, 2))
generic = rotated_petz_map(pinch(rho, z_pvm, "A").matrix, measure_x)
print("reversal channel vs rotated Petz of the pinched state (theta is full rank here):")
print(f"  Choi distance (on the full space) = {op_norm(explicit.choi - generic.choi):.2e}")
report = verify_cptp(explicit)
print(f"  explicit map CPTP: min Choi eigenvalue {report.choi_min_eigenvalue:+.1e}, "
      f"trace-preservation defect {report.trace_preservation_defect:.1e}\n")

# --- perfect reversal of X-after-Z --------------------------------------
theta = theta_state(rho, x_pvm, z_pvm)   # Z then X on A; the XB state, Z outcome discarded
recovered = apply_map(explicit, theta)
pinched = pinch(rho, z_pvm, "A")
print("reversal of the X measurement on the doubly measured state:")
print(f"  trace distance to sum_z |z><z| (x) omega_z = "
      f"{trace_distance(recovered.matrix, pinched.matrix):.2e}")

# recovery applied to the singly measured state is where the fidelity f of
# the refined uncertainty relation comes from
sigma_xb = measure(rho, x_pvm, "A", "X")
f = fidelity(rho.matrix, apply_map(explicit, sigma_xb).matrix)
print(f"  reversibility of the X measurement alone: f = {f:.6f} "
      f"(-log2 f = {-np.log2(f):.6f} bits)")
