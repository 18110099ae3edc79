"""Social-welfare optimum, brute-force cross-check and Price of Stability.

The optimum of the advisor-plus-customers welfare usually sits on the
boundary of the acceptance triangle; here it lands on the c = d face,
away from both equilibria, so the Price of Stability is below one.
"""

from advisorgame import (
    GridSpec,
    ModelParams,
    grid_max_welfare,
    lipschitz_bound,
    maximize_welfare,
    utilities_at_equilibria,
)

p = ModelParams(d=0.1, x=0.4, w=0.5, n=1, alpha=0.05, beta=0.1,
                gamma=0.2, zeta=10.0, r_d=0.3, r_s=0.2)

report = maximize_welfare(p)
print(f"welfare maximum SW_M = {report.sw_max:.9f} at {report.location}")
print(f"argmax: c = {report.argmax.c[0]:.6f}, s = {report.argmax.s:.6f}")

resolution = 1e-3
_, grid_val = grid_max_welfare(p, GridSpec(resolution))
slack = resolution * lipschitz_bound(p)
print(f"\ngrid oracle at resolution {resolution}: {grid_val:.9f} "
      f"(gap {abs(report.sw_max - grid_val):.2e}, allowed {slack:.2e})")

print(f"\nwelfare at P*: {report.sw_at_star:.9f}")
print(f"welfare at P+: {report.sw_at_dagger:.9f}")
print(f"Price of Stability: {report.pos:.6f}")

util = utilities_at_equilibria(p, report.equilibria)
print(f"\nper-player payoffs at P*: advisor {util.u_a_star:.7f}, "
      f"customer {util.u_cl_star:.7f}")
print(f"per-player payoffs at P+: advisor {util.u_a_dagger:.7f}, "
      f"customer {util.u_cl_dagger:.7f}")

aligned = maximize_welfare(p.replace(r_s=p.r_d, w=p.x))
print(f"\nwith r_s = r_d and w = x every penalty can vanish at once: "
      f"SW_M = {aligned.sw_max:.6f}, PoS = {aligned.pos:.9f}")
