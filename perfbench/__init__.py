"""Host-time benchmark of the GNNMark simulator (see perfbench/README.md)."""
