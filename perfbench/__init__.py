"""End-to-end benchmark of the coupling framework (see README.md)."""
