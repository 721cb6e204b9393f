package core

// MinRefreshChunk exposes the fan-out's minimum chunk size to the
// external tests, which size their corpora to span several chunks.
const MinRefreshChunk = minRefreshChunk
