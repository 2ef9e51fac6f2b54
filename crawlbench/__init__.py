"""Crawl + exchange benchmark for pyspider_ray (see README.md)."""
