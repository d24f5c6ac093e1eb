package ingest

// ShardIndex exposes the key partitioning to the external tests.
var ShardIndex = shardIndex
