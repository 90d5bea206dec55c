"""Words, their structural measures, and the canonical normal form.

A word is a string over the letters a-z plus 'O', the distinguished
constant.  Three measures drive everything downstream: the content (which
letters occur), the last-occurrence sequence, and the length, which jumps
to infinity as soon as the constant appears.
"""

from varietylab import (
    contains_square,
    content,
    length,
    los,
    normalize_is,
    parse_word,
    substitute,
)

for text in ["xyx", "zOxyzOO", "OO", "xxyz"]:
    w = parse_word(text)
    print(f"word {str(w):10}  content={sorted(content(w))}  "
          f"los={los(w)}  length={length(w)}  square={contains_square(w)}")

print()
print("Normal forms: a word of length one or two is already canonical;")
print("anything longer collapses to its last-occurrence sequence plus O.")
for text in ["xy", "xyx", "zOxyzOO", "OO", "xxxx"]:
    w = parse_word(text)
    print(f"  {str(w):10} -> {normalize_is(w)}")

print()
print("Two words name the same element exactly when their normal forms agree:")
u, v = parse_word("xyz"), parse_word("zOxyzOO")
print(f"  normalize({u}) = {normalize_is(u)}")
print(f"  normalize({v}) = {normalize_is(v)}")

print()
print("Substitution replaces letters by words, keeping O fixed:")
w = parse_word("xyO")
image = substitute(w, {"x": parse_word("ab"), "y": parse_word("O")})
print(f"  {w} under x->ab, y->O gives {image}")
