"""The sixteen-element subvariety lattice, computed from scratch.

The order is derived purely semantically: V sits below W when every
generator of V satisfies every basis identity of W.  The construction then
checks itself against the expected 25 covers before returning.
"""

from varietylab import (
    Variety,
    build_lattice,
    find_n5,
    is_distributive,
    is_zero_distributive,
    neutral_elements,
)

lat = build_lattice()
print(f"elements: {len(lat)}, covers: {len(lat.covers())}")
print(f"atoms: {sorted(str(v) for v in lat.atoms())}")

pent = find_n5(lat)
print(f"\npentagon found, so the lattice is non-modular:")
print(f"  bottom {pent.o} < {pent.a} < {pent.c} < top {pent.i}, side {pent.b}")

ok, witness = is_distributive(lat)
print(f"distributive: {ok} (witness triple {tuple(map(str, witness))})")
ok, _ = is_zero_distributive(lat)
print(f"zero-distributive: {ok}")
print(f"neutral elements: {sorted(str(v) for v in neutral_elements(lat))}")

print("\nJoin facts behind the top of the diagram:")
print(f"  B v K = {lat.join(Variety.B, Variety.K)}")
print(f"  B v L = {lat.join(Variety.B, Variety.L)}")
print(f"  B v M = {lat.join(Variety.B, Variety.M)}")
print(f"  B v N = {lat.join(Variety.B, Variety.N)}")

down_b = lat.down_set(Variety.B)
down_n = lat.down_set(Variety.N)
print(f"\nbelow B: the chain {[str(v) for v in down_b.elements]}")
print(f"below N: {len(down_n)} varieties, all modular "
      f"(pentagon there: {find_n5(down_n)})")

print("\nHasse diagram in DOT (first lines):")
for line in lat.to_dot().splitlines()[:6]:
    print(" ", line)
print("  ...")
