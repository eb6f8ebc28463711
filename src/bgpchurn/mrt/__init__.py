"""MRT container and BGP message codecs."""
