"""Stage 1: pages batch -> docs batch (extraction + Thai tokenization).

The one genuinely stateful, CPU-dominant stage (reference analog: the per-doc
pipeline at document_processor.py:139-259 run under asyncio; here it is an
actor pool — dictionary trie built ONCE per actor in __init__, reference
analog thai_segmenter.py:66-76 / module singletons at tokenize.py:26-50).

Use:  pages.map_batches(ExtractTokenize, fn_constructor_args=(config,),
                        batch_format="pyarrow", batch_size=512,
                        concurrency=(2, N), num_cpus=1)

The fat `html` binary column is consumed here and does NOT appear in the
output — it never travels past this stage (memory note in SURVEY.md §4).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import EngineConfig
from ..functions.hashing import doc_ids_from_urls
from ..kernel.extract import html_title, html_to_text
from ..kernel.tokenize import DocumentTokenizer

_PROCESS_CACHE: dict = {}


def extract_tokenize_fn(batch: pa.Table, config: EngineConfig) -> pa.Table:
    """Stateless-task form: `map_batches(partial(extract_tokenize_fn,
    config=cfg), batch_size=2048)` — see ExtractTokenize.cached for rationale."""
    return ExtractTokenize.cached(config)(batch)


DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("url", pa.string()),
        ("text", pa.string()),
        ("terms", pa.list_(pa.string())),
        ("token_count", pa.int32()),
        ("thai_ratio", pa.float32()),
        ("mixed", pa.bool_()),
        ("lang", pa.string()),
        # per-occurrence token position of each entry in `terms` (primary
        # terms count up; compound parts share the parent position) — feeds
        # the positional posting path (store_positions)
        ("term_positions", pa.list_(pa.int32())),
        # token positions [0, title_tc) belong to the TITLE field (the
        # attribute ranking rule's field boundary): the <title> text
        # renders first in html_to_text output, so its tokenization is the
        # text's token prefix. 0 = no title / title not a text prefix
        # (everything is content) — verified per doc, never assumed
        ("title_tc", pa.int32()),
        # per-doc processing status (reference semantics:
        # document_processor.py:25-57 ProcessingStatus + error_message):
        # "completed" | "skipped" (no Thai content; still indexed) |
        # "failed" (extraction/tokenization error; EXCLUDED from stats and
        # postings — the dead-letter row, never a raised task)
        ("status", pa.string()),
        ("error", pa.string()),
    ]
)

STATUS_COMPLETED = "completed"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"


class ExtractTokenize:
    def __init__(self, config: EngineConfig | None = None):
        self.tokenizer = DocumentTokenizer(config or EngineConfig())

    @classmethod
    def cached(cls, config: EngineConfig) -> "ExtractTokenize":
        """Per-worker-process instance cache for STATELESS-TASK use.

        Measured: tokenizer construction is ~36 ms, but an autoscaling actor
        pool costs seconds of startup before full throughput — stateless tasks
        with a process-cached instance hit the same amortization (Ray reuses
        worker processes) with elastic scheduling and zero pool spin-up. Use
        `extract_tokenize_fn` below as the map_batches callable; keep the actor
        pool form for genuinely heavy state (large models)."""
        # key = the FULL semantic tokenizer key (state/hot_reload), not an
        # ad-hoc field subset: a worker process reused across builds with
        # different tokenizer settings (e.g. non_separator_tokens) must not
        # serve the other build's tokenizer (r4 full-suite flake: the
        # settings-persist test built after default-config tests had warmed
        # this cache, and 'e-mail' split on the stale default semantics)
        from ..state.hot_reload import tokenizer_cache_key

        key = tokenizer_cache_key(config)
        inst = _PROCESS_CACHE.get(key)
        if inst is None:
            inst = _PROCESS_CACHE[key] = cls(config)
        return inst

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [""] * len(urls)
        texts: list[str] = []
        terms: list[list[str]] = []
        positions: list[list[int]] = []
        counts: list[int] = []
        ratios: list[float] = []
        mixed: list[bool] = []
        statuses: list[str] = []
        errors: list[str] = []
        analyze = self.tokenizer.analyze
        tokenize = self.tokenizer.tokenize
        title_tcs: list[int] = []
        for h in htmls:
            # one corrupt page must become a status row, not a task retry
            # storm: at 100 TB a raised batch re-runs every doc in it
            try:
                text = html_to_text(h)
                a = analyze(text)
                # title-field boundary (attribute ranking rule): only when
                # the title tokenization is verifiably the text's token
                # prefix — else 0 (whole doc is content field)
                title = html_title(h)
                title_tc = 0
                if title and text.startswith(title):
                    # positions index PRIMARY tokens (compound parts share
                    # the parent position), so the boundary is the title's
                    # primary-token count, not its term count
                    title_tc = len(tokenize(title))
            except Exception as exc:  # dead-letter row
                texts.append("")
                terms.append([])
                positions.append([])
                counts.append(0)
                ratios.append(0.0)
                mixed.append(False)
                title_tcs.append(0)
                statuses.append(STATUS_FAILED)
                errors.append(f"{type(exc).__name__}: {exc}"[:500])
                continue
            title_tcs.append(title_tc)
            texts.append(text)
            terms.append(a["terms"])
            positions.append(a["term_positions"])
            counts.append(a["token_count"])
            ratios.append(a["thai_ratio"])
            mixed.append(a["mixed"])
            statuses.append(
                STATUS_COMPLETED if a["has_thai"] else STATUS_SKIPPED
            )
            errors.append("")
        doc_ids = doc_ids_from_urls(urls).astype("int64")
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "text": pa.array(texts, pa.string()),
                "terms": pa.array(terms, pa.list_(pa.string())),
                "token_count": pa.array(counts, pa.int32()),
                "thai_ratio": pa.array(ratios, pa.float32()),
                "mixed": pa.array(mixed, pa.bool_()),
                "lang": pa.array(langs, pa.string()),
                "term_positions": pa.array(positions, pa.list_(pa.int32())),
                "title_tc": pa.array(title_tcs, pa.int32()),
                "status": pa.array(statuses, pa.string()),
                "error": pa.array(errors, pa.string()),
            },
            schema=DOCS_SCHEMA,
        )
