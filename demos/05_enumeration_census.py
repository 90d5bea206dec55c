"""Census of all small algebras, one representative per isomorphism class.

The search pins the constant at index 0, fills the table with backtracking,
prunes on every determinable axiom instance, skips most isomorphic copies by
the least-number heuristic and a least-prefix cut on row 0 and column 0, and
deduplicates the rest by canonical form.  In
flat mode each survivor is classified into its least variety.
"""

from varietylab import Mode, builtin, canonical_form, enumerate_algebras, render_algebra

for order in (1, 2, 3):
    rep = enumerate_algebras(order, Mode.IS)
    counts = {str(v): c for v, c in sorted(rep.per_variety.items(), key=lambda kv: str(kv[0]))}
    print(f"flat mode, order {order}: {rep.count} classes  {counts}")

print()
for order in (1, 2, 3):
    rep = enumerate_algebras(order, Mode.IZ)
    print(f"tree mode, order {order}: {rep.count} classes")

print()
rep2 = enumerate_algebras(2, Mode.IZ)
forms = {canonical_form(a) for a in rep2.algebras}
print("order-2 tree census contains 2s:", canonical_form(builtin("2s")) in forms)
print("order-2 tree census contains 2b:", canonical_form(builtin("2b")) in forms)

print()
print("The two flat-mode algebras of order 2 (the semilattice and the null one):")
for a in enumerate_algebras(2, Mode.IS).algebras:
    print(render_algebra(a))
