"""Sequence-classification laboratory for diagonal state-space blocks
under depth-recurrent parameter sharing.

The package provides: a linear-recurrence scan with exact adjoints, a
small reverse-mode tape over float64 arrays, four recurrent block
architectures behind one interface, depth-stacked models whose blocks
can be shared in repeating patterns, sequence reshaping by a
concentration factor, dataset handling, a deterministic training
harness, an audit suite for the package's core identities, and a CLI.
Nothing is re-exported here: import the submodules (`loopseq.stack`,
`loopseq.train`, ...).
"""

__version__ = "0.1.0"
