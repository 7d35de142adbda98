"""One square lattice element by three independent routes, plus the far field.

Run:  python3 demos/nd_routes.py
"""
import time

from fraclat import (
    FractionalOrder,
    LatticeSpec,
    OffsetVector,
    asymptotic_constant_nd,
    element_infinite_nd_bessel,
    element_infinite_nd_bz,
    element_periodic_nd,
)


def main():
    order = FractionalOrder(1.5)
    offset = OffsetVector((2, 1))
    print(f"Square lattice element at offset {offset.components}, alpha={order.alpha}")

    t0 = time.perf_counter()
    spectral = element_periodic_nd(order, LatticeSpec(2, (512, 512)), offset)
    t1 = time.perf_counter()
    zone = element_infinite_nd_bz(order, 2, offset)
    t2 = time.perf_counter()
    heat = element_infinite_nd_bessel(order, 2, offset)
    t3 = time.perf_counter()

    print(f"  512 x 512 mode sum          {spectral:+.12f}   ({t1 - t0:.2f}s)")
    print(f"  zone integral               {zone:+.12f}   ({t2 - t1:.2f}s)")
    print(f"  heat kernel Bessel integral {heat:+.12f}   ({t3 - t2:.2f}s)")
    print(f"  pairwise spread {max(abs(spectral - zone), abs(zone - heat), abs(spectral - heat)):.2e}")

    print("\nFar field: elements decay as -C / p^(2 + alpha) along an axis")
    constant = asymptotic_constant_nd(2, order.alpha)
    print(f"  C(2, {order.alpha}) = {constant:.10f}")
    for p in (8, 16, 32):
        value = element_infinite_nd_bz(order, 2, OffsetVector((p, 0)))
        print(f"  p={p:>2}: element {value:+.6e}   -C/p^3.5 {-constant / p**3.5:+.6e}")


if __name__ == "__main__":
    main()
