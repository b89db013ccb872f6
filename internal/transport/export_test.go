package transport

// Internals the external test package (which may import the packages that
// own the codecs) drives directly.
var (
	AppendValue  = appendValue
	AppendGob    = appendGob
	AppendShared = appendShared
	DecodeValue  = decodeValue
	DecodeFrame  = decodeFrame
	AppendFrame  = appendFrame
)

const FramePrefix = framePrefix
