#pragma once
/// \file message.h
/// \brief The pilot wire protocol: typed messages exchanged between the
/// Pilot-Manager (rt::RemoteRuntime) and Pilot-Agent endpoints.
///
/// The P* model (paper Sec. IV-A, ref [6]) defines the manager and agents
/// as distinct components joined by an explicit coordination channel; this
/// header is that channel's vocabulary. Every message payload starts with
/// a header
///
///     u8 version | u8 type | u16 reserved | u64 seq | str pilot_id
///
/// followed by a type-specific body using the same compact primitives as
/// the journal codec (fixed-width little-endian integers, u32
/// length-prefixed strings). `seq` is assigned per connection by the
/// sender, strictly increasing, so receivers can spot reordering or loss
/// across a reconnect.
///
/// There is one protocol version. Manager and agents are built from one
/// tree, so the encoder always writes kProtocolVersion and the decoder
/// rejects any other header byte with a pa::Error naming both versions;
/// there is no negotiation and no down-level body layout.
///
/// Control and unit flow (units always travel in bulk, after
/// RADICAL-Pilot's bulk dispatch; a lone unit is a batch of one):
///
///     agent   ──kHello────────▶ manager  (pilot id + peer dial address)
///     manager ──kStartPilot───▶ agent    (description + fleet token key)
///     manager ◀─kPilotActive─── agent    (allocation up, cores + site)
///     manager ──kUnitBatch────▶ agent    (vector of units, agent
///                                         late-binds them to cores)
///     manager ◀─kUnitDoneBatch─ agent    (vector of completions plus the
///                                         agent's remaining headroom)
///     manager ──kHeartbeat────▶ agent
///     manager ◀─kHeartbeatAck── agent    (echoes the probe timestamp)
///     manager ──kShutdown─────▶ agent    (cancel / drain)
///     manager ◀kPilotTerminated agent    (walltime end, agent failure)
///
/// Data plane, manager star (pa::store, Pilot-Data as a first-class
/// citizen): content-addressed objects travel as chunked frames so a
/// large stage-in never head-of-line-blocks heartbeats on the same
/// connection.
///
///     manager ──kObjPut────▶ agent    (one chunk; agent assembles, CRC-
///                                      verifies, stores in its shard)
///     manager ◀─kObjLocate── agent    (replica announce / NACK / evict)
///     manager ──kObjGet────▶ agent    (request an object by id)
///     manager ◀──kObjChunk── agent    (one chunk back; chunk_count = 0
///                                      means the shard no longer holds it)
///
/// Data plane, peer transfers: the manager stays the placement/directory
/// authority but stops relaying chunks. Instead it mints signed,
/// expiring transfer tokens and agents move the bytes over a peer
/// channel (each agent publishes a dial address in its kHello):
///
///     manager ──kXferToken──▶ dest      (signed grant: object, source,
///                                        chunk range, deadline, nonce)
///     dest    ──kPeerOffer──▶ source    (presents the token on a direct
///                                        agent↔agent connection)
///     dest    ◀──kPeerChunk── source    (token-validated chunk stream;
///                                        chunk_count = 0 rejects)
///     manager ◀──kPeerDone─── dest      (ack drives the directory; a
///                                        failed ack requeues the grant)
///
/// A kXferToken with success = false is a revocation notice sent to the
/// *source*: the nonce is dead (expiry, dest death) and any replay of it
/// must be rejected.

#include <cstdint>
#include <string>
#include <vector>

#include "pa/core/types.h"

namespace pa::net {

/// The protocol version this build speaks — the only one it accepts.
/// Bump on any change to the header, a body layout, the type table, the
/// frame checksum or the object-id hash. Version 6: CRC-32C frames and
/// chunks, XXH64 object ids. An older peer's frames already fail the
/// frame CRC (wire.h) before this byte is read.
inline constexpr std::uint8_t kProtocolVersion = 6;

/// Values are wire identifiers; changing the table bumps kProtocolVersion.
enum class MessageType : std::uint8_t {
  kHello = 1,            ///< agent -> manager: pilot_id + peer dial address
  kStartPilot = 2,       ///< manager -> agent: pilot description
  kPilotActive = 3,      ///< agent -> manager: allocation up (cores, site)
  kPilotTerminated = 4,  ///< agent -> manager: final pilot state
  kHeartbeat = 5,        ///< manager -> agent: liveness probe (timestamp)
  kHeartbeatAck = 6,     ///< agent -> manager: echo of the probe
  kShutdown = 7,         ///< manager -> agent: cancel pilot, close down
  kUnitBatch = 8,        ///< manager -> agent: bulk unit dispatch
  kUnitDoneBatch = 9,    ///< agent -> manager: bulk completions + window
  kObjPut = 10,          ///< manager -> agent: one object chunk to store
  kObjGet = 11,          ///< manager -> agent: request an object
  kObjChunk = 12,        ///< agent -> manager: one object chunk back
  kObjLocate = 13,       ///< agent -> manager: replica announce/NACK
  kXferToken = 14,       ///< manager -> agent: transfer grant / revoke
  kPeerOffer = 15,       ///< dest -> source: present a token peer-to-peer
  kPeerChunk = 16,       ///< source -> dest: token-validated chunk
  kPeerDone = 17,        ///< dest -> manager: peer transfer outcome
};

const char* to_string(MessageType t);

/// Serializable subset of core::ComputeUnitDescription. The `work`
/// closure cannot cross a wire; agents resolve the payload by unit id
/// (rt::PayloadTable in loopback deployments, a named executable in real
/// ones) or burn CPU for `duration` when none resolves.
struct WireUnitDescription {
  std::string unit_id;
  std::string name;
  std::int32_t cores = 1;
  double duration = 1.0;
  std::vector<std::string> input_data;
  std::vector<std::string> output_data;
  std::string attributes;  ///< pa::Config::to_string round-trip
  bool has_work = false;   ///< manager registered a resolvable payload

  bool operator==(const WireUnitDescription&) const = default;
};

/// One completion inside a kUnitDoneBatch.
struct WireUnitDone {
  std::string unit_id;
  bool success = false;
  double timestamp = 0.0;

  bool operator==(const WireUnitDone&) const = default;
};

/// One protocol message. A flat struct rather than a variant: only the
/// fields of the active `type` are encoded on the wire, the rest stay
/// default-initialized (and are ignored by operator== via the codec
/// round-trip tests, which compare decoded against freshly-made values).
struct Message {
  MessageType type = MessageType::kHeartbeat;
  std::uint64_t seq = 0;
  std::string pilot_id;

  // kStartPilot
  std::string resource_url;
  std::int32_t nodes = 0;
  double walltime = 0.0;
  std::int32_t priority = 0;
  double cost_per_core_hour = 0.0;
  std::string pilot_attributes;  ///< pa::Config::to_string round-trip

  // kPilotActive
  std::int32_t total_cores = 0;
  std::string site;

  // kPilotTerminated
  core::PilotState pilot_state = core::PilotState::kNew;

  // kHeartbeat / kHeartbeatAck
  double timestamp = 0.0;

  // kUnitBatch
  std::vector<WireUnitDescription> units;

  // kUnitDoneBatch: completions plus the agent's scheduling window —
  // how many more units the agent can queue (local-queue capacity minus
  // queued and running). The manager sizes the next kUnitBatch to it.
  std::vector<WireUnitDone> completions;
  std::int32_t window = 0;

  // kObjPut / kObjChunk: one chunk of a content-addressed object.
  // `transfer_id` correlates every chunk of one transfer (and the kObjGet
  // that requested it); `chunk_count` in a kObjChunk of 0 is the
  // not-found reply. `chunk_crc` is the CRC32 of `chunk_data`, computed
  // at the source shard and verified end-to-end at the destination —
  // it rides *inside* the frame so it survives intact frames that carry
  // bytes corrupted at rest.
  // kObjGet carries object_id + transfer_id only; kObjLocate carries
  // object_id, object_bytes, `success` (false = NACK: store failed or the
  // shard evicted/dropped the object) and `sites` (holders known to the
  // sender; empty in agent announcements). kXferToken and kPeerDone use
  // `success` too (see below).
  std::string object_id;
  std::uint64_t transfer_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t object_bytes = 0;
  std::uint32_t chunk_crc = 0;
  std::string chunk_data;
  bool success = false;
  std::vector<std::string> sites;

  // kHello: the dial address of the agent's peer listener, empty when
  // its listener could not bind (the manager then keeps the pilot on the
  // star). Also rides in a kXferToken grant as the *source's* address.
  std::string peer_endpoint;

  // kStartPilot: the fleet's shared token-MAC secret, handed to each
  // agent once so sources can validate grants offline.
  std::string token_key;

  // kXferToken / kPeerOffer: the signed transfer grant. The token
  // covers {object_id, transfer_id, object_bytes, source_pilot,
  // dest_pilot, chunk_begin..chunk_end, deadline, nonce} under `mac`
  // (keyed FNV over the fleet secret). `deadline` is absolute wall
  // seconds; `nonce` is single-use. A kXferToken with success = false is
  // a revocation notice (nonce identifies the dead grant). kPeerDone
  // carries object_id, transfer_id, nonce, object_bytes and success.
  std::string source_pilot;
  std::string dest_pilot;
  std::uint32_t chunk_begin = 0;
  std::uint32_t chunk_end = 0;  ///< exclusive
  double deadline = 0.0;
  std::uint64_t nonce = 0;
  std::uint64_t mac = 0;

  bool operator==(const Message&) const = default;
};

/// Serializes the message body (header + type body, no frame).
std::string encode_message(const Message& message);

/// Appends the serialized body to `out` without clearing it — the
/// zero-copy arena path. Pair with wire.h begin_frame/end_frame to build
/// framed messages in place.
void encode_message_into(std::string& out, const Message& message);

/// Parses a message body; throws pa::Error on malformed input, unknown
/// type, or a header version other than kProtocolVersion.
Message decode_message(const char* data, std::size_t size);

/// Convenience: encode_message + append_frame (wire.h framing).
void append_message_frame(std::string& out, const Message& message);

// --- adapters to/from the core vocabulary -----------------------------------

/// kStartPilot from a pilot description (attributes flattened to text).
Message make_start_pilot(const std::string& pilot_id,
                         const core::PilotDescription& description);

/// Rebuilds the description a kStartPilot message carries.
core::PilotDescription to_pilot_description(const Message& message);

/// Serializable view of a unit description (drops the work closure;
/// `has_work` records whether the manager registered one).
WireUnitDescription to_wire_unit(const std::string& unit_id,
                                 const core::ComputeUnitDescription& d,
                                 bool has_work);

/// Rebuilds an executable description from the wire form (work unset —
/// the agent resolves it separately).
core::ComputeUnitDescription to_unit_description(const WireUnitDescription& w);

}  // namespace pa::net
