package main

// This file is the benchmark's only contact with dedupcr/internal/...:
// every type and function the traced replay drives is named here once, so
// a later change that moves or renames a layer's API edits this file and
// nothing else under bench/. The end-to-end run never comes through here;
// it uses the public facade (package dedupcr) only.

import (
	"dedupcr/internal/chunk"
	"dedupcr/internal/collectives"
	"dedupcr/internal/core"
	"dedupcr/internal/fetch"
	"dedupcr/internal/fingerprint"
	"dedupcr/internal/storage"
)

type (
	fpT     = fingerprint.FP
	tableT  = fingerprint.Table
	chunkT  = chunk.Chunk
	recipeT = chunk.Recipe
	planT   = core.Plan
	windowT = collectives.Window
)

// chunk: boundary scan, batched hashing (serial and pooled).
var (
	newChunker     = chunk.New
	fromCuts       = chunk.FromCuts
	fromCutsStream = chunk.FromCutsStream
)

// fingerprint: hashing primitives and the HMERGE leaf table.
var (
	fpOf       = fingerprint.Of
	batchOf    = fingerprint.BatchOf
	localTable = fingerprint.Local
)

// collectives: the reduction, the load exchange, the completion barrier
// and the one-sided window.
var (
	allreduce      = collectives.Allreduce
	allgatherInt64 = collectives.AllgatherInt64
	barrier        = collectives.Barrier
	openWindow     = collectives.OpenWindow
)

// core: partner selection and offset planning.
var (
	selectShuffle = core.SelectShuffle
	newPlan       = core.NewPlan
)

// storage: the engine's durability point.
var storeCommit = storage.Commit

// fetch: the restore-time peer service. Class 0 is the plain restore's;
// the replay never runs while a Restore is in flight, so sharing it is
// safe.
const fetchClass fetch.Class = 0

var (
	fetchServe = fetch.Serve
	fetchChunk = fetch.Chunk
)
