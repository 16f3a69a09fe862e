"""
q-deformed Young symmetrizers and their squaring scalars.

The one-row element a_n sums all basis braids weighted by s^crossings and
absorbs every generator as the scalar s; the one-column element b_n does the
same with -s^-1.  For a general Young diagram the row elements are placed
along rows, the column elements along columns (conjugated back into row
order), and the resulting element e squares to alpha * e with

    alpha = product over cells of s^content * [hook length].

    python demos/03_symmetrizers.py
"""

from qyoung.laurent import S
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import (
    alpha_closed_form,
    alpha_extract,
    antisymmetrizer,
    e_lambda,
    symmetrizer,
)

# The two-strand building blocks.
a2, b2 = symmetrizer(2), antisymmetrizer(2)
print("a_2 =", a2)
print("b_2 =", b2)
print("a_2 g_1 = s a_2:", a2.mul_generator(1) == a2.scale(S))

# The smallest diagram that mixes a row with a column.
lam = Partition((2, 1))
e = e_lambda(lam)
print("\ne_(2,1) =", e)

# The scalar comes out of an honest squaring, then matches the closed form.
qi = alpha_extract(lam)
print("alpha extracted  :", qi.alpha)
print("alpha closed form:", alpha_closed_form(lam))

# The true idempotent is e/alpha, kept as a (numerator, denominator) pair:
# dividing by alpha is only possible over the fraction field.
num, den = qi.element, qi.alpha
print("idempotent denominator:", den)
print("(e/alpha)^2 = e/alpha:", num * num == num.scale(den))

# At s = 1 the scalar collapses to the product of hook lengths.
print("\nalpha(1) for all diagrams with 4 cells:")
for lam in all_partitions(4):
    qi = alpha_extract(lam)
    hooks = 1
    for h in lam.hook_lengths():
        hooks *= h
    print(f"  {str(lam):10s} alpha(1) = {qi.alpha.eval_at_one():3d}   hook product = {hooks}")
