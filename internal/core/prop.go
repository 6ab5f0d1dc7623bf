package core

// Tag folds for multi-byte accesses: a load joins the tags of the bytes it
// reads with the IFP's LUB (the paper's Section V semantics), and the VP+
// interpreter's load path and fetch-tag summary share these two helpers.

// Fold2 joins the tags of a 2-byte access, short-circuiting the all-equal
// case (uniformly classified data, the overwhelmingly common one) to one
// comparison without LUBs.
func Fold2(l *Lattice, b0, b1 TByte) Tag {
	t := b0.T
	if b1.T != t {
		t = l.LUB(b0.T, b1.T)
	}
	return t
}

// Fold4 joins the tags of a 4-byte access with the same short circuit.
func Fold4(l *Lattice, b0, b1, b2, b3 TByte) Tag {
	t := b0.T
	if b1.T != t || b2.T != t || b3.T != t {
		t = l.LUB(l.LUB(b0.T, b1.T), l.LUB(b2.T, b3.T))
	}
	return t
}
