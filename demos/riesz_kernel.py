"""Continuum kernels on the line and the circle, and the lattice limit.

Run:  python3 demos/riesz_kernel.py
"""
from fraclat import (
    continuum_convergence_check,
    riesz_kernel_infinite,
    riesz_kernel_periodic,
)


def main():
    alpha = 0.8
    print(f"Kernel K(x) at alpha={alpha}: periodized (period L) vs whole line")
    for length in (2.0, 10.0, 100.0):
        print(f"  L={length:>5}:")
        for x in (0.25, 0.5, 1.0):
            k_l = riesz_kernel_periodic(alpha, length, x)
            k_inf = riesz_kernel_infinite(alpha, x)
            print(f"    x={x:<5} K_L {k_l:.8f}   K_inf {k_inf:.8f}   excess {k_l - k_inf:.2e}")
    print("(the excess is the wrapped image contribution; it dies as L^-(alpha+1))")

    print("\nScaled lattice couplings converge to the kernel at fixed x = 1:")
    for alpha in (0.5, 1.5):
        report = continuum_convergence_check(alpha, 1.0, (0.1, 0.025, 0.00625, 0.0015625))
        print(f"  alpha={alpha}: kernel target {report.kernel:.10f}")
        for (h, p, scaled, rel_err), label in zip(report.entries, ("", "", "", " <- final")):
            print(f"    h={h:<10} p={p:>4}  scaled element {scaled:.10f}  rel err {rel_err:.2e}{label}")
        print(f"    empirical convergence rates {tuple(round(r, 3) for r in report.rates)}")


if __name__ == "__main__":
    main()
