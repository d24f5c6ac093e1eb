// Package core defines the SenSocial middleware abstractions from §3.1 of
// the paper: publish-subscribe streams of physical and social context,
// distributed filters with modality/operator/value conditions, privacy
// policies over modality and granularity, aggregators, and the trigger
// payloads exchanged between the server and mobile middleware over MQTT.
//
// The mobile-side runtime lives in core/mobile and the server-side runtime
// in core/server; this package holds the shared vocabulary and pure logic
// so both sides (and the XML configuration layer) agree on semantics.
package core

import (
	"fmt"

	"repro/internal/sensors"
)

// Granularity is the level of detail of stream data: raw sensor samples or
// high-level classified labels (paper §3: "raw state (e.g. accelerometer
// x-axis intensity values), or ... classified to high level inferred states
// (e.g. activity classified as 'running')").
type Granularity string

// Granularity values.
const (
	GranularityRaw        Granularity = "raw"
	GranularityClassified Granularity = "classified"
)

// ValidGranularity reports whether g is a known granularity.
func ValidGranularity(g Granularity) bool {
	return g == GranularityRaw || g == GranularityClassified
}

// StreamKind distinguishes the two stream flavours of §3.1: continuous
// (periodic sampling) and social event-based (sampled when an OSN action is
// detected).
type StreamKind string

// StreamKind values.
const (
	KindContinuous  StreamKind = "continuous"
	KindSocialEvent StreamKind = "social-event"
)

// ValidStreamKind reports whether k is a known stream kind.
func ValidStreamKind(k StreamKind) bool {
	return k == KindContinuous || k == KindSocialEvent
}

// Destination says where a stream's data is consumed: by a listener on the
// mobile itself or forwarded to the server (paper Figure 5 distinguishes
// "local streams" from "server streams").
type Destination string

// Destination values.
const (
	DeliverLocal  Destination = "local"
	DeliverServer Destination = "server"
)

// ValidDestination reports whether d is a known destination.
func ValidDestination(d Destination) bool {
	return d == DeliverLocal || d == DeliverServer
}

// Context modality types: the vocabulary filters can condition on. The
// paper's examples: "physical_activity equal walking" gating a GPS stream,
// "facebook_activity equal active" for OSN-coupled sampling, time
// intervals, and location-based conditions.
const (
	CtxPhysicalActivity = "physical_activity"
	CtxAudioEnvironment = "audio_environment"
	CtxPlace            = "place"
	CtxWiFiPlace        = "wifi_place"
	CtxBTSocial         = "bt_social"
	CtxTimeOfDay        = "time_of_day"
	CtxFacebookActivity = "facebook_activity"
	CtxTwitterActivity  = "twitter_activity"
)

// ContextModalities lists every filterable context modality type, in
// ContextModalityIndex order.
func ContextModalities() []string {
	return []string{
		CtxPhysicalActivity,
		CtxAudioEnvironment,
		CtxPlace,
		CtxWiFiPlace,
		CtxBTSocial,
		CtxTimeOfDay,
		CtxFacebookActivity,
		CtxTwitterActivity,
	}
}

// ContextModalityIndex returns name's position in ContextModalities(), a
// small integer that stores and compares cheaper than the string; ok is
// false for a name outside the filter vocabulary.
func ContextModalityIndex(name string) (index int, ok bool) {
	switch name {
	case CtxPhysicalActivity:
		return 0, true
	case CtxAudioEnvironment:
		return 1, true
	case CtxPlace:
		return 2, true
	case CtxWiFiPlace:
		return 3, true
	case CtxBTSocial:
		return 4, true
	case CtxTimeOfDay:
		return 5, true
	case CtxFacebookActivity:
		return 6, true
	case CtxTwitterActivity:
		return 7, true
	default:
		return 0, false
	}
}

// ValidContextModality reports whether name belongs to the filter
// vocabulary.
func ValidContextModality(name string) bool {
	_, ok := ContextModalityIndex(name)
	return ok
}

// SensorForContext maps a context modality type to the physical sensor that
// must be sampled to evaluate it; "" when no sensor is involved (time and
// OSN conditions). The paper: "an unrelated stream, the accelerometer
// stream, has to be sensed in order to infer the activity".
func SensorForContext(ctxModality string) (string, error) {
	switch ctxModality {
	case CtxPhysicalActivity:
		return sensors.ModalityAccelerometer, nil
	case CtxAudioEnvironment:
		return sensors.ModalityMicrophone, nil
	case CtxPlace:
		return sensors.ModalityLocation, nil
	case CtxWiFiPlace:
		return sensors.ModalityWiFi, nil
	case CtxBTSocial:
		return sensors.ModalityBluetooth, nil
	case CtxTimeOfDay, CtxFacebookActivity, CtxTwitterActivity:
		return "", nil
	default:
		return "", fmt.Errorf("core: unknown context modality %q", ctxModality)
	}
}

// ContextForSensor is the inverse of SensorForContext: the classified
// context type a sensor modality produces.
func ContextForSensor(sensorModality string) (string, error) {
	switch sensorModality {
	case sensors.ModalityAccelerometer:
		return CtxPhysicalActivity, nil
	case sensors.ModalityMicrophone:
		return CtxAudioEnvironment, nil
	case sensors.ModalityLocation:
		return CtxPlace, nil
	case sensors.ModalityWiFi:
		return CtxWiFiPlace, nil
	case sensors.ModalityBluetooth:
		return CtxBTSocial, nil
	default:
		return "", fmt.Errorf("core: unknown sensor modality %q", sensorModality)
	}
}

// OSNActive is the context value signalling that an OSN action accompanies
// the current evaluation, as in the paper's Figure 7 filter
// (facebook_activity equals active).
const OSNActive = "active"
