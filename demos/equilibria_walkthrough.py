"""Walk through the two-equilibria reference configuration.

A single advisor (internal opinion x = 0.4) faces one customer whose
baseline opinion is d = 0.1 and who was promised a lower return than
desired (r_s - r_d = -0.1). The game has two Nash equilibria; iterated
best responses started nearby settle onto the upper one.
"""

from advisorgame import (
    ModelParams,
    OpinionProfile,
    advisor_best_response,
    best_response_dynamics,
    check_admissibility_regions,
    critical_zeta,
    customer_best_response,
    nash_equilibria,
    perturbation_check,
)

p = ModelParams(d=0.1, x=0.4, w=0.5, n=1, alpha=0.05, beta=0.1,
                gamma=0.2, zeta=10.0, r_d=0.3, r_s=0.2)

eq = nash_equilibria(p)
print("discriminant:", eq.roots.discriminant)
print(f"stated-opinion roots: a = {eq.roots.a:.6f}, b = {eq.roots.b:.6f}")
for name, prof, adm in (("P*", eq.p_star, eq.star_admissible),
                        ("P+", eq.p_dagger, eq.dagger_admissible)):
    print(f"{name}: c = {prof.c[0]:.6f}, s = {prof.s:.6f}, "
          f"admissible = {adm}")
print("admissibility agreed by:", eq.admissibility_source.value)

star, dagger, (r_d_1, r_d_2) = check_admissibility_regions(p)
print(f"\nfeasibility windows below r_d: width {r_d_1:.4f} (P*), "
      f"down to {r_d_2:.4f} (P+)")
print(f"r_s - r_d = {p.r_s - p.r_d:+.2f} keeps P* in: {star}, P+ in: {dagger}")

crit = critical_zeta(p)
print(f"\ncritical dissonance: zeta_bar = {crit.zeta_bar:.4f}")
print("last useful equilibrium:", crit.last_useful_equilibrium)

# Both equilibria really are mutual best responses.
for name, prof in (("P*", eq.p_star), ("P+", eq.p_dagger)):
    s_br = advisor_best_response(p, prof.c)
    c_br = customer_best_response(p.customer(), prof.s)
    nash = perturbation_check(p, prof, trials=1000, seed=1)
    print(f"\n{name}: advisor BR {s_br:.6f}, customer BR {c_br:.6f}, "
          f"survives 1000 lattice deviations: {nash}")

start = OpinionProfile.uniform(0.28, 0.35, 1)
trace = best_response_dynamics(p, start)
print(f"\ndynamics from (c, s) = (0.28, 0.35): converged = {trace.converged} "
      f"after {trace.iterations_used} rounds")
print(f"fixed point: c = {trace.fixed_point.c[0]:.9f}, "
      f"s = {trace.fixed_point.s:.9f}")
