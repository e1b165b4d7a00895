"""Command-line surface, wire formats, and run manifests."""
