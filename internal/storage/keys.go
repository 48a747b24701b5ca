package storage

// The stable-storage key registry. Every key a component persists through
// Store.Put must start with one of the prefixes declared here.
// TestStoreKeysAreRegistered (internal/rsmbench) reads every process's store
// after simulated runs of each protocol and of the RSM, so a new subsystem
// inventing a key spelling in place fails it until the prefix is registered.
// One registry keeps the namespaces visibly disjoint: restore paths scan
// Keys() by prefix, and an undeclared key is either invisible to recovery
// or, worse, shadows another component's namespace.
const (
	// KeyRSMLogPrefix prefixes the RSM's per-slot decision records
	// ("rsmlog/<slot>"). Compaction truncates this namespace below the
	// snapshot horizon.
	KeyRSMLogPrefix = "rsmlog/"
	// KeyRSMSessPrefix prefixes spilled client-session dedup records
	// ("rsm-sess-<client>"), written when the in-memory session table
	// evicts. Snapshots fold these in and clear them.
	KeyRSMSessPrefix = "rsm-sess-"
	// KeyRSMNext is the RSM proposer's next-slot counter.
	KeyRSMNext = "rsm-next"
	// KeyRSMSnapshot is the RSM compaction snapshot (state machine image +
	// full session table as of the snapshot horizon).
	KeyRSMSnapshot = "rsm-snap"
	// KeyRSMEpoch is the RSM replica's highest adopted leadership epoch.
	KeyRSMEpoch = "rsm-epoch"
	// KeySlotPrefix prefixes the per-slot instance namespaces the RSM hands
	// its inner protocol instances ("slot<N>/<inner key>").
	KeySlotPrefix = "slot"

	// Per-protocol durable state records (one blob per process).
	KeyModPaxosState   = "modpaxos-state"
	KeyPaxosState      = "paxos-state"
	KeyRoundBasedState = "roundbased-state"
	KeyBConsensusState = "bconsensus-state"
	KeyDynamicsState   = "dynamics-state"
)
