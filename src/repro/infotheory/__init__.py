"""Information-theory substrate: set functions, entropy, Shannon inequalities.

This package implements Section 3.2 of the paper: entropy functions of joint
distributions, the polymatroid axioms (non-negativity, monotonicity,
submodularity), modular and subadditive set functions, a prover for
Shannon-type inequalities (linear inequalities valid over the polymatroid
cone Gamma_n), Shearer's lemma, and the Zhang–Yeung non-Shannon inequality
witnessing Gamma*_4 != Gamma_4.
"""
