package core

// FindAlt returns the index of the alternative with the given name, or -1.
func (n *NestSpec) FindAlt(name string) int {
	for i, a := range n.Alts {
		if a.Name == name {
			return i
		}
	}
	return -1
}
