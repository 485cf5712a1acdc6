"""Holomorphic factorization: the 2n x 2n column determinant of a
decomplexified matrix plus the tridiagonal correction splits into a
product of an n x n determinant and its bar-conjugate.

Run:  python demos/factorization_tour.py
"""

from nc_capelli import identities as idn


def main():
    print("Local engine (single psi/phi pair):")
    for sign in ("plus", "minus"):
        report = idn.verify_local_factorization(sign)
        print(f"  sign={sign}: residual zero = {report.residualIsZero}")

    print()
    print("Structured instances with a free central parameter d1,"
          " one more generator of the host:")
    (inst,) = idn.main_theorem_instances(1)
    for sign in ("plus", "minus"):
        report = idn.verify_main_theorem(inst, inst.ds, sign)
        print(f"  {inst.name}, sign={sign}: "
              f"residual zero = {report.residualIsZero}")

    print()
    print("Global cancellation over the exterior algebra "
          "(full product vanishes, any truncation does not):")
    for n in (2, 3):
        full = idn.verify_holfact_general(n)
        print(f"  n={n} full product: residual zero = {full.residualIsZero}")
        for m in range(1, n):
            part = idn.verify_holfact_general(n, truncate=m)
            print(f"  n={n} truncated to {m} factor(s): "
                  f"defect nonzero = {part.notes['truncated_defect_nonzero']}")


if __name__ == "__main__":
    main()
