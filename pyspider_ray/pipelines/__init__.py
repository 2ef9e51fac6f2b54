from .crawl import CrawlPipeline, CrawlConfig, ResultWriteError
from .curate import curated_dataset

__all__ = ["CrawlPipeline", "CrawlConfig", "ResultWriteError", "curated_dataset"]
