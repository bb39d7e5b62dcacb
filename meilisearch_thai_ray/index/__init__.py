"""Sharded inverted index: codec, distributed build, shard reader, BM25 search."""
